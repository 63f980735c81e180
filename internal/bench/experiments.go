package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/txtrace"
)

// experiments is the table: every claim this repository makes beyond the
// paper's figures, each as the configurations that test it. tiny shrinks the
// sizes to what the tier-1 smoke test can afford; the claims are only judged
// at full size.
func experiments(tiny bool) []experiment {
	sz := func(full, small int) int {
		if tiny {
			return small
		}
		return full
	}
	return []experiment{
		shardSweep(sz),
		traceOverhead(sz),
		fingerprintOverhead(sz),
		wireTxn(sz),
		connScale(sz),
	}
}

// sizer picks the full or the tiny value of a size.
type sizer func(full, small int) int

// ---------------------------------------------------------------------------
// shards

// numCounters sizes the INCR key set: wide enough that two threads landing
// on the same counter at once is rare (same-key write-write conflicts are
// shard-count-independent and would only blur the sweep).
const numCounters = 1024

func counterKey(n int) []byte { return fmt.Appendf(nil, "shard-ctr-%04d", n) }

// shardSweep drives one mixed workload at a fixed thread count over
// increasing TM-domain counts. What scales is not the keys (the keyspace is
// shared and uniform) but the synchronization: every shard owns a private
// version clock, orec table, serial lock and LRU heads.
func shardSweep(sz sizer) experiment {
	e := experiment{
		name:    "shards",
		claim:   "partitioning the cache into independent TM domains raises mixed-workload throughput (design target 1.5x at 4+ cores) with zero cross-shard orec conflicts",
		threads: 8, ops: sz(3000, 40), trials: sz(5, 1),
		keyspace: sz(4096, 512), valueSize: 1024,
	}
	for _, n := range []int{1, 2, 4, 8} {
		e.points = append(e.points, point{
			label:  fmt.Sprintf("shards=%d", n),
			params: Metrics{"shards": n},
			// The memory limit fits the working set: conflicts, not
			// eviction, are under test.
			cache: engine.Config{Branch: engine.ITOnCommit, Shards: n, MemLimit: 128 << 20, HashPower: 10},
			prep: func(r *rig) {
				w := r.c.NewWorker()
				for i := 0; i < numCounters; i++ {
					w.Set(counterKey(i), 0, 0, []byte("0"))
				}
			},
			load: shardLoad,
			// The timed pass runs untraced. A shorter traced pass then has
			// the observer CAS an owner onto every orec cell it sees; domains
			// occupy disjoint orec-id ranges, so a second owner — two
			// runtimes sharing a synchronization word — must never appear.
			verify: func(r *rig, m Metrics) {
				obs := r.c.EnableTracing()
				r.ops = r.ops/4 + 1
				r.fanOut(shardLoad)
				m["cross_shard_orec_conflicts"] = obs.CrossShardOrecConflicts()
			},
		})
	}
	return e
}

// shardLoad runs r.ops groups of: one cross-shard GetMulti of MultiGetBatch
// keys on the read-only fast path, four SETs (each rewrites a size-class LRU
// head — the hottest word a domain owns), and one INCR over a wide counter
// set (a read-modify-write with a wide conflict window but no deliberate hot
// key: same-key conflicts cannot shard away).
func shardLoad(r *rig, t int, w *engine.Worker) uint64 {
	rng := rngState(uint64(t) + 0x5AD)
	key := func() []byte { return benchKey(int(nextRand(&rng) % uint64(r.e.keyspace))) }
	val := make([]byte, r.e.valueSize)
	group := make([][]byte, engine.MultiGetBatch)
	for g := 0; g < r.ops; g++ {
		for i := range group {
			group[i] = key()
		}
		w.GetMulti(group)
		for s := 0; s < 4; s++ {
			w.Set(key(), 0, 0, val)
		}
		w.Incr(counterKey(int(nextRand(&rng)%numCounters)), 1)
	}
	return uint64(r.ops) * uint64(len(group)+5)
}

// ---------------------------------------------------------------------------
// trace-overhead, fingerprint-overhead

// wireScripts builds one request stream per thread, once per experiment: ops
// text-protocol commands at 9:1 GET:SET over the prefilled keyspace. Every
// trial of every point replays the same bytes.
func wireScripts(e experiment) func() [][]byte {
	return sync.OnceValue(func() [][]byte {
		scripts := make([][]byte, e.threads)
		val := bytes.Repeat([]byte{'v'}, e.valueSize)
		for t := range scripts {
			var b bytes.Buffer
			rng := rngState(uint64(t) + 1)
			for i := 0; i < e.ops; i++ {
				k := benchKey(int(nextRand(&rng) % uint64(e.keyspace)))
				if i%10 == 9 {
					fmt.Fprintf(&b, "set %s 0 0 %d\r\n%s\r\n", k, e.valueSize, val)
				} else {
					fmt.Fprintf(&b, "get %s\r\n", k)
				}
			}
			b.WriteString("quit\r\n")
			scripts[t] = b.Bytes()
		}
		return scripts
	})
}

// scriptConn feeds a canned request stream to protocol.Conn and discards the
// replies — a client socket with no kernel in the measurement loop.
type scriptConn struct {
	io.Reader
	io.Writer
}

// wireLoad serves thread t's script through the text protocol; with spans set
// the connection carries a span buffer, as every server connection does.
func wireLoad(scripts func() [][]byte, spans bool) func(r *rig, t int, w *engine.Worker) uint64 {
	return func(r *rig, t int, w *engine.Worker) uint64 {
		pc := protocol.NewConn(w, scriptConn{Reader: bytes.NewReader(scripts()[t]), Writer: io.Discard})
		if spans {
			pc.SetSpans(txtrace.NewConnSpans(r.c.Tracer(), uint64(t)+1))
		}
		pc.Serve()
		return uint64(r.e.ops)
	}
}

var overheadCache = engine.Config{Branch: engine.ITOnCommit, MemLimit: 256 << 20, HashPower: 10}

// traceOverhead: the number that matters is the disabled point — a connection
// with a span buffer bound but the tracer off pays one atomic load per request.
func traceOverhead(sz sizer) experiment {
	e := experiment{
		name:    "trace-overhead",
		claim:   "request tracing bound to a connection but switched off costs <= 2% of text-protocol throughput; sampled and full tracing are priced",
		threads: 4, ops: sz(60000, 600), trials: sz(5, 1),
		keyspace: sz(4096, 512), valueSize: 1024,
	}
	scripts := wireScripts(e)
	for _, cfg := range []struct {
		label string
		spans bool
		mode  txtrace.Mode
	}{
		{"no-spans", false, txtrace.ModeOff},
		{"off", true, txtrace.ModeOff},
		{"sampled", true, txtrace.ModeSampled},
		{"full", true, txtrace.ModeFull},
	} {
		p := point{label: cfg.label, cache: overheadCache, load: wireLoad(scripts, cfg.spans)}
		if mode := cfg.mode; mode != txtrace.ModeOff {
			p.prep = func(r *rig) { r.c.EnableTxTrace(mode) }
		}
		e.points = append(e.points, p)
	}
	return e
}

// fingerprintOverhead: off-after-enable proves Disable restores the cheap path
// rather than leaving recorders bound; enabled prices live sampling.
func fingerprintOverhead(sz sizer) experiment {
	e := experiment{
		name:    "fingerprint-overhead",
		claim:   "workload fingerprinting costs one atomic nil load per op when disabled, also after an enable/disable cycle (<= 2%); live sampling is priced",
		threads: 4, ops: sz(40000, 600), trials: sz(11, 1),
		keyspace: sz(4096, 512), valueSize: 1024,
	}
	load := wireLoad(wireScripts(e), false)
	e.points = []point{
		{label: "disabled", cache: overheadCache, load: load},
		{label: "off-after-enable", cache: overheadCache, load: load, prep: func(r *rig) {
			r.c.EnableFingerprint()
			r.c.DisableFingerprint()
		}},
		{label: "enabled", cache: overheadCache, load: load, prep: func(r *rig) { r.c.EnableFingerprint() }},
	}
	return e
}

// ---------------------------------------------------------------------------
// txn

// wireTxn measures wire-transaction commits. Three shapes isolate the commit
// path's cost layers — single-key (one shard, one speculative transaction),
// same-shard (one domain, a bigger read/write set), cross-shard (the ordered
// N-domain commit with its global serial fallback) — and a sweep shrinks the
// key pool under cross-shard transfers: every transaction validates its reads
// CAS-style, so a tighter pool manufactures real validation conflicts.
func wireTxn(sz sizer) experiment {
	e := experiment{
		name:    "txn",
		claim:   "a wire transaction commits as one optimistic server-side transaction: cross-shard costs about what same-shard does, conflicts rise as the key pool shrinks, serial fallbacks stay rare, and no unit of balance is ever lost",
		threads: 4, ops: sz(20000, 100), trials: sz(5, 1),
	}
	add := func(label string, perShard int, yield bool) {
		e.points = append(e.points, point{
			label:  label,
			params: Metrics{"shards": 4, "keys_per_shard": perShard},
			cache:  engine.Config{Branch: engine.ITOnCommit, Shards: 4, MemLimit: 64 << 20, HashPower: 10},
			prep:   func(r *rig) { r.state = txnPools(r.c, perShard) },
			load: func(r *rig, t int, w *engine.Worker) uint64 {
				pools := r.state.([2][][]byte)
				rng := rngState(uint64(t)*0x9E37 + 7)
				pick := func(pool int) []byte { return pools[pool][nextRand(&rng)%uint64(perShard)] }
				for i := 0; i < r.ops; i++ {
					switch label {
					case "single-key":
						k := pick(0)
						_, _, cas, _ := w.Get(k)
						w.CommitTx([]engine.TxRead{{Key: k, CAS: cas}}, []engine.TxOp{{Kind: engine.TxIncr, Key: k, Delta: 1}})
					case "same-shard":
						txnTransfer(w, pick(0), pick(0), yield)
					default:
						txnTransfer(w, pick(0), pick(1), yield)
					}
				}
				return uint64(r.ops)
			},
			// Transfers conserve the seeded total; a single-key commit adds
			// exactly one. Any other sum means a commit applied half an op.
			verify: func(r *rig, m Metrics) {
				w := r.c.NewWorker()
				var sum int64
				for _, pool := range r.state.([2][][]byte) {
					for _, k := range pool {
						v, _, _, _ := w.Get(k)
						n, _ := strconv.ParseInt(string(v), 10, 64)
						sum += n - txnSeedBalance
					}
				}
				if label == "single-key" {
					sum -= int64(m["tx_commits"].(uint64))
				}
				m["ledger_drift"] = sum
				m["conflict_rate"] = float64(m["tx_conflicts"].(uint64)) / float64(r.e.threads*r.ops)
			},
		})
	}
	add("single-key", 2048, false)
	add("same-shard", 2048, false)
	add("cross-shard", 2048, false)
	// The sweep yields between read and commit: with fewer CPUs than threads
	// goroutines otherwise run whole iterations back to back, and the rate
	// would measure the scheduler's preemption, not validation.
	for _, hot := range []int{4096, 256, 32, 8} {
		add(fmt.Sprintf("cross-shard hot=%d", hot), hot/2, true)
	}
	return e
}

const txnSeedBalance = 1000000

// txnPools seeds perShard balance keys on each of shards 0 and 1.
func txnPools(c *engine.Cache, perShard int) [2][][]byte {
	var pools [2][][]byte
	w := c.NewWorker()
	for i := 0; len(pools[0]) < perShard || len(pools[1]) < perShard; i++ {
		k := fmt.Appendf(nil, "txn-key-%06d", i)
		if s := c.ShardOf(k); s < 2 && len(pools[s]) < perShard {
			pools[s] = append(pools[s], k)
			w.Set(k, 0, 0, []byte(strconv.Itoa(txnSeedBalance)))
		}
	}
	return pools
}

// txnTransfer runs one validated two-key transfer: read both balances, move
// one unit a→b.
func txnTransfer(w *engine.Worker, a, b []byte, yield bool) {
	_, _, casA, _ := w.Get(a)
	_, _, casB, _ := w.Get(b)
	if yield {
		runtime.Gosched()
	}
	w.CommitTx(
		[]engine.TxRead{{Key: a, CAS: casA}, {Key: b, CAS: casB}},
		[]engine.TxOp{{Kind: engine.TxDecr, Key: a, Delta: 1}, {Kind: engine.TxIncr, Key: b, Delta: 1}},
	)
}

// ---------------------------------------------------------------------------
// conns

// connScale asks what a connection costs per transport. The timed points run
// an identical request-response mix through real sockets on each, to show the
// event loop does not tax the busy path for what it saves on the idle one; the
// extra rows hold a ladder of idle connections against each and record the
// server's RSS and goroutine growth per rung (see holder.go).
func connScale(sz sizer) experiment {
	e := experiment{
		name:    "conns",
		claim:   "the event-loop transport holds an idle connection for ~1 KB and no goroutine (RSS <= 0.25x goroutine-per-conn at 10k) without slowing an active 64-connection mix",
		threads: sz(64, 8), ops: sz(1500, 50), trials: sz(3, 1),
		keyspace: 1024, valueSize: 100,
	}
	for _, tr := range []struct {
		label     string
		eventLoop bool
	}{{"event-loop", true}, {"goroutine-per-conn", false}} {
		e.points = append(e.points, point{
			label:  tr.label + " active",
			params: Metrics{"shards": 4, "transport": tr.label},
			cache:  engine.Config{Branch: engine.ITOnCommit, Shards: 4, MemLimit: 64 << 20, HashPower: 12},
			listen: &server.Config{Addr: "127.0.0.1:0", EventLoop: tr.eventLoop},
			load:   connLoad,
			verify: func(r *rig, m Metrics) {
				ds := r.lat.drain()
				m["p50_ms"], m["p99_ms"] = quantileMs(ds, 0.5), quantileMs(ds, 0.99)
			},
		})
	}
	rungs := []int{sz(1000, 100), sz(10000, 200), sz(100000, 300)}
	e.extra = func(e *experiment, res *Result) error { return connLadder(e, res, rungs) }
	return e
}

// connLoad is one sequential client: r.ops request-response rounds of an
// 80/20 get/set mix over its own socket.
func connLoad(r *rig, t int, _ *engine.Worker) uint64 {
	c, err := net.Dial("tcp", r.addr)
	if err != nil {
		r.fail(err)
		return 0
	}
	defer c.Close()
	br := bufio.NewReader(c)
	rng := rngState(uint64(t) + 0xBEEF)
	val := strings.Repeat("x", r.e.valueSize)
	for op := 0; op < r.ops; op++ {
		key := benchKey(int(nextRand(&rng) % uint64(r.e.keyspace)))
		end := "END"
		t0 := time.Now()
		if nextRand(&rng)%10 < 8 {
			fmt.Fprintf(c, "get %s\r\n", key)
		} else {
			fmt.Fprintf(c, "set %s 0 0 %d\r\n%s\r\n", key, len(val), val)
			end = "STORED"
		}
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				r.fail(fmt.Errorf("conn %d op %d: %w", t, op, err))
				return uint64(op)
			}
			if strings.HasPrefix(line, end) {
				break
			}
		}
		r.lat.add(time.Since(t0))
	}
	return uint64(r.ops)
}
