// Package torture drives the cache through seeded fault schedules and checks
// it against a sequential model. A run has two chaos phases and a check
// phase:
//
//   - Phase A churns a small keyspace with the full command mix (get, set,
//     add, cas, append, delete, incr) while every STM, slab and maintenance
//     fault point fires at rates drawn from the seed.
//   - Phase B writes a set of stable keys with key-derived values, sized to
//     force hash-table expansion while the maintenance faults are still
//     firing. Slab allocation failure is disabled for this phase so the
//     stable keys cannot be refused or evicted: once Set returns Stored, the
//     key must survive.
//
// Every value either phase stores certifies itself: it is a function of its
// key closed by a length-and-checksum trailer (chaosValue), so every reply a
// worker reads is verified on the spot, whoever wrote it and whenever — a torn
// copy, or a chunk recycled under a reader, cannot pass.
//
// The check phase disarms the injector, waits for expansion to finish, and
// asserts the invariants: no ACKed stable key lost or corrupted across
// expansion, stat counters consistent with the harness's own op counts,
// and — via engine.ValidateQuiescent — balanced refcounts and exact chunk
// ownership (engine.Validate also runs after each chaos phase). Every failure
// message carries the seed, so any run reproduces from its report alone.
//
// RunRecycle (recycle.go) is the chaos phase alone on a cache a few pages
// small, so that it evicts and recycles chunks continuously.
package torture

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/assoc"
	"repro/internal/engine"
	"repro/internal/fault"
)

// Config parameterizes one torture run. Zero fields take defaults.
type Config struct {
	Branch engine.Branch
	Seed   uint64

	Workers    int     // concurrent chaos workers (default 4)
	Ops        int     // phase-A ops per worker (default 1200)
	StableKeys int     // phase-B keys, sized to force expansion (default 2200)
	HashPower  uint    // initial table = 2^HashPower buckets per shard (default 8; 6 when sharded)
	MemLimit   uint64  // slab budget (default 64 MiB: phase B must not evict)
	MaxRate    float64 // ceiling for per-point fault rates (default 0.02)

	// Shards runs the cache as this many independent TM domains (default 1).
	// Stable keys spread across shards, so each shard's table starts smaller
	// (HashPower default drops to 6) to keep every shard's incremental
	// expander exercised while keys churn — the lost-key check then covers
	// concurrent per-shard expansions, and the refcount/slab balance checks
	// sum over shards via ValidateQuiescent.
	Shards int

	// Short shrinks the run for -race smoke tests (-torture.short).
	Short bool

	// Mix selects how the chaos workers read and write (see Mix).
	Mix Mix

	// Prepare, when set, runs on RunRecycle's cache before any worker starts:
	// the mutation test uses it to seed the bug the run must catch.
	Prepare func(*engine.Cache)
}

// churn is the keyspace and value sizes of a chaos phase.
type churn struct {
	keys            int // keys all workers share
	valMin, valSpan int // a value's body is valMin..valMin+valSpan-1 bytes
}

// runChurn is Run's and RunNetwork's: a keyspace hot enough that every op
// meets another worker's, values spread across the small slab classes.
var runChurn = churn{keys: 191, valMin: 5, valSpan: 116}

func (c churn) key(r uint64) []byte { return []byte(fmt.Sprintf("churn-%d", r%uint64(c.keys))) }

// value is key's self-certifying value, its length drawn from r.
func (c churn) value(key []byte, r uint64) []byte {
	return chaosValue(key, c.valMin+int(r%uint64(c.valSpan)))
}

// Mix is the shape of a chaos worker's reads and writes.
type Mix int

const (
	// MixGet reads one key per get (the default).
	MixGet Mix = iota
	// MixBatch reads engine.MultiGetBatch keys per multi-get: the read-only
	// batch transactions that hold no reference on what they read.
	MixBatch
	// MixTxn turns sets into wire transactions — one validated read, two
	// queued sets — whose allocations happen inside the commit transaction.
	// Needs a branch with wire-transaction support.
	MixTxn
)

func (m Mix) String() string { return [...]string{"get", "batch", "txn"}[m] }

func (c Config) withDefaults() Config {
	if c.Short {
		if c.Workers == 0 {
			c.Workers = 2
		}
		if c.Ops == 0 {
			c.Ops = 300
		}
		if c.StableKeys == 0 {
			c.StableKeys = 800
		}
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Ops == 0 {
		c.Ops = 1200
	}
	if c.StableKeys == 0 {
		c.StableKeys = 2200
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.HashPower == 0 {
		if c.Shards > 1 {
			// Keys divide across shards; a smaller per-shard table keeps the
			// expansion threshold (3/2 full) within reach of every shard.
			c.HashPower = 6
		} else {
			c.HashPower = 8
		}
	}
	if c.MemLimit == 0 {
		c.MemLimit = 64 << 20
	}
	if c.MaxRate == 0 {
		c.MaxRate = 0.02
	}
	return c
}

// Report is the outcome of a run. Violations is empty on success; every
// entry embeds the seed so a failing schedule can be replayed exactly.
type Report struct {
	mu sync.Mutex // chaos workers report bad replies concurrently

	Branch      engine.Branch
	Seed        uint64
	Violations  []string
	HashExpands uint64
	FaultsFired uint64
	Faults      string // injector summary (point, rate, hits, fires)
	Elapsed     time.Duration

	// Wire-transaction counters, populated by RunTxn only.
	TxCommits   uint64
	TxConflicts uint64
}

// Failed reports whether any invariant was violated.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

func (r *Report) String() string {
	if !r.Failed() {
		tx := ""
		if r.TxCommits > 0 {
			tx = fmt.Sprintf(", %d tx commits (%d conflicts)", r.TxCommits, r.TxConflicts)
		}
		return fmt.Sprintf("torture %s seed=%d: ok (%d faults fired, %d hash expansions%s, %v)",
			r.Branch, r.Seed, r.FaultsFired, r.HashExpands, tx, r.Elapsed.Round(time.Millisecond))
	}
	out := fmt.Sprintf("torture %s seed=%d: %d violation(s):\n", r.Branch, r.Seed, len(r.Violations))
	for _, v := range r.Violations {
		out += "  " + v + "\n"
	}
	return out + r.Faults
}

func (r *Report) violatef(format string, args ...interface{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// A broken build fails every reply; the first few say it all.
	if len(r.Violations) < 20 {
		r.Violations = append(r.Violations,
			fmt.Sprintf("[seed=%d] ", r.Seed)+fmt.Sprintf(format, args...))
	}
}

// opCounts tallies what one worker actually issued, to reconcile against the
// engine's stat counters in the check phase.
type opCounts struct {
	gets, stores, deletes, deltas uint64
}

func (a *opCounts) add(b opCounts) {
	a.gets += b.gets
	a.stores += b.stores
	a.deletes += b.deletes
	a.deltas += b.deltas
}

// Run executes one in-process torture run and returns its report.
func Run(cfg Config) *Report {
	cfg = cfg.withDefaults()
	start := time.Now()
	rep := &Report{Branch: cfg.Branch, Seed: cfg.Seed}

	points := append(fault.StmPoints(), fault.EnginePoints()...)
	in := fault.RandomSchedule(cfg.Seed, points, cfg.MaxRate)
	in.Arm()

	cache := engine.New(engine.Config{
		Branch:    cfg.Branch,
		Shards:    cfg.Shards,
		MemLimit:  cfg.MemLimit,
		HashPower: cfg.HashPower,
		Automove:  true,
		Fault:     in,
		Watchdog:  2 * time.Millisecond,
	})
	cache.Start()

	issued := runChaos(cache, cfg, in, rep)

	// Check phase: no more faults, let the table settle, then audit.
	in.Disarm()
	wk := cache.NewWorker()
	waitExpansion(wk, rep)
	checkStats(wk, rep, issued)
	checkStableKeys(wk, cfg, rep)

	cache.Stop()
	if err := cache.ValidateQuiescent(); err != nil {
		rep.violatef("structural validation: %v", err)
	}

	rep.FaultsFired = in.TotalFired()
	rep.Faults = in.Summary()
	rep.Elapsed = time.Since(start)
	return rep
}

// runChaos runs phases A and B and returns the totals of what was issued.
func runChaos(cache *engine.Cache, cfg Config, in *fault.Injector, rep *Report) opCounts {
	// Phase A: full command mix over a churn keyspace, everything armed.
	perWorker := make([]opCounts, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			perWorker[id] = chaosWorker(cache.NewWorker(), cfg, runChurn, id, rep)
		}(w)
	}
	wg.Wait()
	validatePhase(cache, in, rep, "A")

	// Phase B: stable keys under expansion. Allocation failure off — an
	// eviction or refused store here would be indistinguishable from the
	// lost-key bug this phase exists to catch.
	in.Set(fault.SlabAllocFail, 0)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			perWorker[id].add(stableWorker(cache.NewWorker(), cfg, id))
		}(w)
	}
	wg.Wait()
	validatePhase(cache, in, rep, "B")

	var total opCounts
	for i := range perWorker {
		total.add(perWorker[i])
	}
	return total
}

// validatePhase runs the structural validator once a phase's workers have
// returned. The maintenance threads are still running, which it tolerates: it
// is one critical section over every domain. The injector is disarmed for it —
// a walk of every item is thousands of barriers, which at per-barrier abort
// rates never commits, and a NoLock branch would retry it forever.
func validatePhase(cache *engine.Cache, in *fault.Injector, rep *Report, phase string) {
	in.Disarm()
	defer in.Arm()
	if err := cache.Validate(); err != nil {
		rep.violatef("structural validation after phase %s: %v", phase, err)
	}
}

// chaosWorker is one phase-A goroutine: a deterministic op stream from the
// seed and worker id, aimed at a churn keyspace shared by all workers. Every
// value it reads back is verified against its key.
func chaosWorker(wk *engine.Worker, cfg Config, ch churn, id int, rep *Report) (n opCounts) {
	// A reader that trips over a half-recycled chunk may not return a wrong
	// value but index out of its buffer: that is a violation with a seed, not
	// a crashed test binary.
	defer func() {
		if r := recover(); r != nil {
			rep.violatef("chaos worker %d panicked: %v", id, r)
		}
	}()
	rng := rngState(cfg.Seed, uint64(id))
	ctr := []byte(fmt.Sprintf("churn-ctr-%d", id))
	wk.Set(ctr, 0, 0, []byte("0")) // may be refused by an alloc fault; incr then just misses
	n.stores++
	get := func(key []byte) (uint64, bool) {
		val, _, cas, ok := wk.Get(key)
		n.gets++
		if ok {
			verifyChaos(rep, key, val)
		}
		return cas, ok
	}
	for op := 0; op < cfg.Ops; op++ {
		r := rng.next()
		key := ch.key(r)
		val := ch.value(key, r>>24)
		switch r >> 8 % 10 {
		case 0, 1, 2:
			if cfg.Mix != MixBatch {
				get(key)
				break
			}
			keys := make([][]byte, engine.MultiGetBatch)
			for i := range keys {
				keys[i] = ch.key(r + uint64(i)*7)
			}
			for i, res := range wk.GetMulti(keys) {
				if res.Found {
					verifyChaos(rep, keys[i], res.Value)
				}
			}
			n.gets += uint64(len(keys))
		case 3, 4:
			if cfg.Mix != MixTxn {
				wk.Set(key, uint32(r), 0, val)
				n.stores++
				break
			}
			// A missing key validates as CAS 0, so the commit goes through
			// unless someone stored it in between.
			cas, _ := get(key)
			key2 := ch.key(r >> 32)
			out := wk.CommitTx([]engine.TxRead{{Key: key, CAS: cas}}, []engine.TxOp{
				{Kind: engine.TxSet, Key: key, Value: val},
				{Kind: engine.TxSet, Key: key2, Value: ch.value(key2, r>>40)},
			})
			if out.Committed {
				n.stores += 2
			}
		case 5:
			wk.Add(key, 0, 0, val)
			n.stores++
		case 6:
			wk.Delete(key)
			n.deletes++
		case 7:
			if r&1 == 0 {
				wk.Incr(ctr, r%97)
			} else {
				wk.Decr(ctr, r%31)
			}
			n.deltas++
		case 8:
			if cas, ok := get(key); ok {
				wk.CAS(key, 0, 0, val, cas)
				n.stores++
			}
		default:
			wk.Append(key, []byte(chaosAppend))
			n.stores++
		}
	}
	return n
}

// stableWorker writes this worker's slice of the stable keyspace, then reads
// it back once while expansion (and the maintenance faults stalling it) is
// still in flight. Stores retry until acknowledged: phase B's contract is
// "ACKed implies present at check time", so refusal by a transient condition
// may not silently weaken it.
func stableWorker(wk *engine.Worker, cfg Config, id int) opCounts {
	var n opCounts
	lo := id * cfg.StableKeys / cfg.Workers
	hi := (id + 1) * cfg.StableKeys / cfg.Workers
	for i := lo; i < hi; i++ {
		for {
			n.stores++
			if wk.Set(stableKey(i), 0, 0, stableValue(cfg.Seed, i)) == engine.Stored {
				break
			}
		}
	}
	for i := lo; i < hi; i++ {
		wk.Get(stableKey(i))
		n.gets++
	}
	return n
}

func stableKey(i int) []byte {
	return []byte(fmt.Sprintf("stable-%06d", i))
}

// stableValue derives the expected value from seed and index alone, so the
// checker needs no shadow copy of the store.
func stableValue(seed uint64, i int) []byte {
	h := (seed ^ uint64(i)*0x9E3779B97F4A7C15) | 1
	return []byte(fmt.Sprintf("v-%06d-%016x", i, h))
}

// chaosAppend is what the chaos mix appends to a value; no chaosValue byte is
// a '+', so any number of them strips off unambiguously.
const chaosAppend = "+t"

// chaosValue is the self-certifying value of key with an n-byte body: the
// body is a letter stream seeded by the key's hash, and a trailer closes it
// with n and a checksum of key and n. Two values of one key differ only in
// where they end, values of different keys almost everywhere, and whatever a
// reader assembles from pieces of two of them fails checkChaosValue.
func chaosValue(key []byte, n int) []byte {
	h := assoc.Hash(key)
	val := make([]byte, n, n+chaosTrailer)
	x := h
	for i := range val {
		x = x*6364136223846793005 + 1442695040888963407
		val[i] = 'a' + byte(x>>59)%26
	}
	return fmt.Appendf(val, "|%04x%08x", n, uint32(h>>32)^uint32(n)*0x9E3779B1)
}

// chaosTrailer is the length of chaosValue's trailer.
const chaosTrailer = 13

// checkChaosValue reports what is wrong with val as a value of key: it must
// be some chaosValue(key, n) followed by any number of chaosAppends.
func checkChaosValue(key, val []byte) error {
	body := val
	for bytes.HasSuffix(body, []byte(chaosAppend)) {
		body = body[:len(body)-len(chaosAppend)]
	}
	n := len(body) - chaosTrailer
	if n < 0 {
		return fmt.Errorf("%d bytes, shorter than a trailer", len(val))
	}
	if want := chaosValue(key, n); !bytes.Equal(body, want) {
		i := 0
		for i < len(body) && body[i] == want[i] {
			i++
		}
		return fmt.Errorf("%d bytes, differs from the value of this key at byte %d: got %q, want %q",
			len(val), i, clip(body[i:]), clip(want[i:]))
	}
	return nil
}

func clip(b []byte) []byte {
	if len(b) > 24 {
		return b[:24]
	}
	return b
}

func verifyChaos(rep *Report, key, val []byte) {
	if err := checkChaosValue(key, val); err != nil {
		rep.violatef("get %q returned a value that is not this key's: %v", key, err)
	}
}

// waitExpansion lets the hash maintainer finish migrating; the per-key check
// must run against a settled table or a migration bug could masquerade as a
// timing flake. Settled means no migration in flight AND none owed: phase B
// is a few milliseconds of stores, so on a multicore host the workers can
// finish before the maintainer they signalled has been scheduled even once.
func waitExpansion(wk *engine.Worker, rep *Report) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := wk.Stats()
		if !wk.Expanding() && s.HashItems <= s.HashBuckets*3/2 {
			return
		}
		if time.Now().After(deadline) {
			rep.violatef("hash expansion still in flight (or never started: %d items in %d buckets) 10s after faults disarmed",
				s.HashItems, s.HashBuckets)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// checkStats reconciles the engine's counters against what the harness
// actually issued. An injected abort that double-counts (or a lost stat
// transaction) shows up here.
func checkStats(wk *engine.Worker, rep *Report, issued opCounts) {
	s := wk.Stats()
	rep.HashExpands = s.HashExpands
	if s.GetCmds != issued.gets {
		rep.violatef("cmd_get=%d, harness issued %d gets", s.GetCmds, issued.gets)
	}
	if s.GetHits+s.GetMisses != s.GetCmds {
		rep.violatef("get_hits(%d)+get_misses(%d) != cmd_get(%d)", s.GetHits, s.GetMisses, s.GetCmds)
	}
	if s.SetCmds != issued.stores {
		rep.violatef("cmd_set=%d, harness issued %d stores", s.SetCmds, issued.stores)
	}
	if s.DeleteHits+s.DeleteMiss != issued.deletes {
		rep.violatef("delete_hits(%d)+delete_misses(%d) != %d deletes issued",
			s.DeleteHits, s.DeleteMiss, issued.deletes)
	}
	if s.IncrHits+s.IncrMiss != issued.deltas {
		rep.violatef("incr_hits(%d)+incr_misses(%d) != %d incr/decr issued",
			s.IncrHits, s.IncrMiss, issued.deltas)
	}
	if s.CurrItems != s.HashItems {
		rep.violatef("curr_items=%d but hash table holds %d", s.CurrItems, s.HashItems)
	}
	if s.HashExpands == 0 {
		// Not a cache bug, a harness bug: the run never exercised the
		// invariant it exists to test.
		rep.violatef("no hash expansion occurred; run tested nothing (raise StableKeys or lower HashPower)")
	}
}

// checkStableKeys is the lost-key check: every ACKed phase-B key must be
// present with its derived value after expansion.
func checkStableKeys(wk *engine.Worker, cfg Config, rep *Report) {
	lost, corrupt := 0, 0
	for i := 0; i < cfg.StableKeys; i++ {
		val, _, _, ok := wk.Get(stableKey(i))
		switch {
		case !ok:
			lost++
			if lost <= 5 {
				rep.violatef("stable key %q lost across hash expansion", stableKey(i))
			}
		case !bytes.Equal(val, stableValue(cfg.Seed, i)):
			corrupt++
			if corrupt <= 5 {
				rep.violatef("stable key %q corrupted: got %q want %q",
					stableKey(i), val, stableValue(cfg.Seed, i))
			}
		}
	}
	if lost > 5 {
		rep.violatef("... and %d more lost keys", lost-5)
	}
	if corrupt > 5 {
		rep.violatef("... and %d more corrupted keys", corrupt-5)
	}
}

// ---------------------------------------------------------------------------
// deterministic per-worker RNG (splitmix64)

type rng struct{ s uint64 }

func rngState(seed, id uint64) rng {
	return rng{s: seed ^ (id+1)*0x9E3779B97F4A7C15}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	x := r.s
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
