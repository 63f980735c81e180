package server

import (
	"bufio"
	"fmt"
	"net"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/poller"
	"repro/internal/protocol"
	"repro/internal/txobs"
)

// transports runs a subtest per event-loop poller implementation (the
// platform one and, via the newPoller seam, the portable fallback), so the
// whole transport is exercised over both on every platform.
func transports(t *testing.T, body func(t *testing.T)) {
	t.Run("platform", body)
	t.Run("fallback", func(t *testing.T) {
		old := newPoller
		newPoller = poller.NewFallback
		defer func() { newPoller = old }()
		body(t)
	})
}

func TestEventLoopServesText(t *testing.T) {
	transports(t, func(t *testing.T) {
		s := startServerConfig(t, engine.ITOnCommit, Config{})
		roundTrip(t, s.Addr(), "set k 0 0 5\r\nhello\r\n", "STORED")
		roundTrip(t, s.Addr(), "version\r\n", "VERSION")

		// Same connection, many sequential commands: the park/arm/burst cycle
		// must hold up across command boundaries.
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		for i := 0; i < 50; i++ {
			fmt.Fprintf(conn, "set ek%d 0 0 2\r\nvv\r\n", i)
			if line, _ := r.ReadString('\n'); line != "STORED\r\n" {
				t.Fatalf("set %d: %q", i, line)
			}
			fmt.Fprintf(conn, "get ek%d\r\n", i)
			if line, _ := r.ReadString('\n'); !strings.HasPrefix(line, "VALUE") {
				t.Fatalf("get %d: %q", i, line)
			}
			r.ReadString('\n')
			r.ReadString('\n')
		}
	})
}

func TestEventLoopPipelinedBurst(t *testing.T) {
	transports(t, func(t *testing.T) {
		s := startServerConfig(t, engine.ITOnCommit, Config{})
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// One write carrying many commands: the whole pipeline must be served
		// as a burst (parking mid-pipeline with buffered input would hang).
		var b strings.Builder
		const n = 64
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "set pk%d 0 0 3\r\nabc\r\n", i)
		}
		if _, err := conn.Write([]byte(b.String())); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		for i := 0; i < n; i++ {
			line, err := r.ReadString('\n')
			if err != nil || line != "STORED\r\n" {
				t.Fatalf("pipelined reply %d: %q %v", i, line, err)
			}
		}
	})
}

// startShardedEventLoop boots a 4-shard cache, so the event loop runs 6
// workers and 4 affine queues, and returns the server plus its cache.
func startShardedEventLoop(t *testing.T) (*Server, *engine.Cache) {
	t.Helper()
	c := engine.New(engine.Config{Branch: engine.ITOnCommit, HashPower: 8, Shards: 4})
	c.Start()
	s, err := ListenConfig(c, Config{Addr: "127.0.0.1:0"})
	if err != nil {
		c.Stop()
		t.Fatalf("ListenConfig: %v", err)
	}
	t.Cleanup(func() {
		s.Close()
		c.Stop()
	})
	return s, c
}

func TestEventLoopShardedConcurrentClients(t *testing.T) {
	s, _ := startShardedEventLoop(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for op := 0; op < 40; op++ {
				key := fmt.Sprintf("sk-%d-%d", i, op)
				fmt.Fprintf(conn, "set %s 0 0 2\r\nvv\r\n", key)
				if line, err := r.ReadString('\n'); err != nil || line != "STORED\r\n" {
					t.Errorf("set: %q %v", line, err)
					return
				}
				fmt.Fprintf(conn, "get %s\r\n", key)
				if line, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(line, "VALUE") {
					t.Errorf("get: %q %v", line, err)
					return
				}
				r.ReadString('\n')
				r.ReadString('\n')
			}
		}()
	}
	wg.Wait()
}

func TestEventLoopGracefulDrainFinishesInFlightCommand(t *testing.T) {
	transports(t, func(t *testing.T) {
		s := startServerConfig(t, engine.ITOnCommit, Config{DrainTimeout: 5 * time.Second})

		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()

		// Command header without its data block: a worker is now parked inside
		// the command when Close begins.
		fmt.Fprintf(conn, "set drained 0 0 5\r\nhel")
		time.Sleep(100 * time.Millisecond)

		closed := make(chan error, 1)
		go func() { closed <- s.Close() }()

		time.Sleep(50 * time.Millisecond)
		fmt.Fprintf(conn, "lo\r\n")
		line, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil || line != "STORED\r\n" {
			t.Fatalf("in-flight command not drained: %q %v", line, err)
		}
		if err := <-closed; err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}

func TestEventLoopIdleConnectionsReaped(t *testing.T) {
	transports(t, func(t *testing.T) {
		s := startServerConfig(t, engine.ITOnCommit, Config{IdleTimeout: 100 * time.Millisecond})
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "version\r\n")
		r := bufio.NewReader(conn)
		if _, err := r.ReadString('\n'); err != nil {
			t.Fatalf("first command: %v", err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := r.ReadString('\n'); err == nil {
			t.Fatal("idle connection not reaped")
		}
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if s.ConnErrors().Timeout.Load() == 1 {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("conn_errors_timeout = %d, want 1", s.ConnErrors().Timeout.Load())
	})
}

func TestEventLoopMaxConnsBackpressure(t *testing.T) {
	s := startServerConfig(t, engine.ITOnCommit, Config{MaxConns: 2})
	var held []net.Conn
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "version\r\n")
		if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
			t.Fatalf("held conn %d not served: %v", i, err)
		}
		held = append(held, conn)
	}
	extra, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer extra.Close()
	fmt.Fprintf(extra, "version\r\n")
	extra.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if _, err := bufio.NewReader(extra).ReadString('\n'); err == nil {
		t.Fatal("third connection served while both slots were held")
	}
	held[0].Close()
	extra.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(extra).ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "VERSION") {
		t.Fatalf("queued connection not served after slot freed: %q %v", line, err)
	}
}

// TestEventLoopWireTxImplicitAbortOnDisconnect proves the wire-transaction
// contract survives the transport refactor: a connection that dies
// mid-transaction — including mid-request, with a command header already
// parsed — leaves no trace in the cache.
func TestEventLoopWireTxImplicitAbortOnDisconnect(t *testing.T) {
	transports(t, func(t *testing.T) {
		s := startServerConfig(t, engine.ITMax, Config{})

		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		fmt.Fprintf(conn, "txbegin\r\n")
		if line, _ := r.ReadString('\n'); line != "STARTED\r\n" {
			t.Fatalf("txbegin: %q", line)
		}
		fmt.Fprintf(conn, "set ghost 0 0 5\r\nhello\r\n")
		if line, _ := r.ReadString('\n'); line != "QUEUED\r\n" {
			t.Fatalf("queued set: %q", line)
		}
		// Drop mid-request: a new command's header, no data block, then RST.
		fmt.Fprintf(conn, "set ghost2 0 0 5\r\nhe")
		conn.Close()

		// The queued mutation must never apply — the transaction was
		// connection-local and the disconnect is its implicit abort — and the
		// server must stay healthy for other clients.
		time.Sleep(100 * time.Millisecond)
		roundTrip(t, s.Addr(), "get ghost\r\n", "END")
		roundTrip(t, s.Addr(), "set alive 0 0 2\r\nok\r\n", "STORED")
	})
}

// TestEventLoopBufferPoolLeakGuard drains every connection and asserts the
// in-use buffer gauge returns to its baseline: no burst path may leak a
// pooled buffer pair, and parked connections must hold none.
func TestEventLoopBufferPoolLeakGuard(t *testing.T) {
	s := startServerConfig(t, engine.ITOnCommit, Config{})
	base, _ := protocol.BufferGauges()

	const conns = 20
	var cs []net.Conn
	for i := 0; i < conns; i++ {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, conn)
		r := bufio.NewReader(conn)
		fmt.Fprintf(conn, "set lk%d 0 0 2\r\nvv\r\n", i)
		if line, _ := r.ReadString('\n'); line != "STORED\r\n" {
			t.Fatalf("set: %q", line)
		}
	}
	// All connections are parked now (replies read ⇒ bursts over): parked
	// connections hold zero buffers.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if inuse, _ := protocol.BufferGauges(); inuse == base {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if inuse, _ := protocol.BufferGauges(); inuse != base {
		t.Fatalf("parked conns hold %d buffer pairs, want %d", inuse, base)
	}

	for _, c := range cs {
		c.Close()
	}
	for time.Now().Before(deadline) {
		if inuse, _ := protocol.BufferGauges(); inuse == base {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if inuse, _ := protocol.BufferGauges(); inuse != base {
		t.Fatalf("conn_buffers_inuse = %d after drain, want %d", inuse, base)
	}

	// The stats surface must report the gauges.
	resp := statsBlock(t, s.Addr())
	if !strings.Contains(resp, "STAT conn_buffers_inuse ") ||
		!strings.Contains(resp, "STAT conn_buffers_idle ") {
		t.Fatalf("stats missing buffer gauges:\n%s", resp)
	}
}

// statsBlock fetches a full `stats` response.
func statsBlock(t *testing.T, addr string) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "stats\r\n")
	r := bufio.NewReader(conn)
	var b strings.Builder
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("stats read: %v", err)
		}
		b.WriteString(line)
		if line == "END\r\n" {
			return b.String()
		}
	}
}

// TestEventLoopAcceptStormConcurrentClose is the -race smoke for the
// transport: dialing clients, some sending, some slamming the door, while
// Close races the storm. No leaks, no hangs, no race reports.
func TestEventLoopAcceptStormConcurrentClose(t *testing.T) {
	transports(t, func(t *testing.T) {
		for round := 0; round < 10; round++ {
			c := engine.New(engine.Config{Branch: engine.ITOnCommit, HashPower: 8})
			c.Start()
			s, err := ListenConfig(c, Config{Addr: "127.0.0.1:0"})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for d := 0; d < 8; d++ {
				d := d
				wg.Add(1)
				go func() {
					defer wg.Done()
					conn, err := net.Dial("tcp", s.Addr())
					if err != nil {
						return
					}
					switch d % 3 {
					case 0:
						conn.Close() // immediate hangup
					case 1:
						fmt.Fprintf(conn, "set storm%d 0 0 2\r\nvv\r\n", d)
						conn.Close() // hangup with reply possibly in flight
					default:
						fmt.Fprintf(conn, "version\r\n")
						conn.SetReadDeadline(time.Now().Add(2 * time.Second))
						bufio.NewReader(conn).ReadString('\n')
						conn.Close()
					}
				}()
			}
			done := make(chan struct{})
			go func() {
				s.Close()
				close(done)
			}()
			wg.Wait()
			select {
			case <-done:
			case <-time.After(15 * time.Second):
				t.Fatal("Close hung during accept storm")
			}
			c.Stop()
		}
	})
}

// TestEventLoopOverflowSpill exercises the enqueue spill path white-box: a
// loop with a one-slot shared queue and no workers must divert the excess to
// the overflow list, count each spill, and report the overflow length as a
// gauge that survives a counter reset.
func TestEventLoopOverflowSpill(t *testing.T) {
	p, err := poller.NewFallback(func(poller.Token) {})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ev := &evLoop{
		p:       p,
		sharedQ: make(chan *evConn, 1),
		conns:   make(map[poller.Token]*evConn),
	}
	ev.stats.winStart.Store(time.Now().UnixNano())

	mkConn := func() *evConn {
		a, b := net.Pipe()
		t.Cleanup(func() { a.Close(); b.Close() })
		return &evConn{pc: protocol.NewConn(nil, a), fd: -1}
	}
	for i := 0; i < 3; i++ {
		ev.enqueue(mkConn())
	}

	if got := ev.stats.spills.Load(); got != 2 {
		t.Fatalf("spills = %d, want 2 (one slot in sharedQ, three enqueues)", got)
	}
	s := ev.EventLoopSnapshot()
	if s.OverflowSpills != 2 || s.OverflowLen != 2 || s.SharedDepth != 1 {
		t.Fatalf("snapshot spills=%d overflow=%d shared=%d, want 2/2/1",
			s.OverflowSpills, s.OverflowLen, s.SharedDepth)
	}

	// Reset clears the counter; the overflow gauge still shows the queued
	// work, and draining it does not resurrect the counter.
	ev.ResetTransportCounters()
	s = ev.EventLoopSnapshot()
	if s.OverflowSpills != 0 || s.OverflowLen != 2 {
		t.Fatalf("after reset: spills=%d overflow=%d, want 0/2", s.OverflowSpills, s.OverflowLen)
	}
	if ev.popOverflow() == nil || ev.popOverflow() == nil || ev.popOverflow() != nil {
		t.Fatal("overflow should drain exactly two connections in FIFO order")
	}
	if got := ev.EventLoopSnapshot().OverflowLen; got != 0 {
		t.Fatalf("overflow gauge after drain = %d, want 0", got)
	}
}

// statsMap runs one "stats <sub>" query over conn and returns the STAT
// key→value map.
func statsMap(t *testing.T, conn net.Conn, r *bufio.Reader, sub string) map[string]string {
	t.Helper()
	if _, err := fmt.Fprintf(conn, "stats %s\r\n", sub); err != nil {
		t.Fatalf("write stats %s: %v", sub, err)
	}
	out := map[string]string{}
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read stats %s: %v", sub, err)
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "END" {
			return out
		}
		if rest, ok := strings.CutPrefix(line, "STAT "); ok {
			if k, v, ok := strings.Cut(rest, " "); ok {
				out[k] = v
			}
		}
	}
}

// dialStats opens a connection for statsMap queries.
func dialStats(t *testing.T, s *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, bufio.NewReader(conn)
}

// TestStatsKeySetsPinned pins the wire format of the `stats` groups on a
// traced 4-shard, 6-worker event-loop server with one seeded conflict: the
// key sets of `stats`, `stats eventloop`, `stats tm`, `stats conflicts` and
// `stats latency`, and the field names of every histogram line. The values
// are not pinned. The benchmark harness parses `stats` and `stats eventloop`
// (it reads burst_ops.mean and dispatch_ns.p99_ns); every other surface
// (/metrics, /debug/vars, /debug/tm, mctop, mcbench -profile) is transcoded
// from these lines. The histograms behind the two eventloop lines are
// txobs.Histogram; they used to be a second log-bucket type whose quantile
// was the first bucket with cum > ⌊q·n⌋, reported as its inclusive bound
// 2^b−1. txobs's rule is cum >= max(1, ⌊q·n⌋) with the exclusive bound 2^b,
// so a quantile may read one bucket rank lower and 1 (ns or op) higher than
// before; both are capped at the observed max.
func TestStatsKeySetsPinned(t *testing.T) {
	s, c := startShardedEventLoop(t)
	obs := c.EnableTracing()
	conn, r := dialStats(t, s)
	fmt.Fprintf(conn, "set pin 0 0 1\r\nx\r\nget pin\r\n")
	for i := 0; i < 4; i++ { // STORED, VALUE, payload, END
		r.ReadString('\n')
	}
	obs.Record(&txobs.Event{Kind: txobs.KAbort, Orec: 7, Shard: 2, Label: txobs.RegisterLabel("hash_bucket"),
		Cause: "conflict: location locked", Site: "item_get", Owner: "do_item_link"})
	shape := func(sub string) []string {
		var keys []string
		for k, v := range statsMap(t, conn, r, sub) {
			if strings.Contains(v, "=") {
				var names []string
				for _, f := range strings.Fields(v) {
					n, _, _ := strings.Cut(f, "=")
					names = append(names, n)
				}
				k += " " + strings.Join(names, ",")
			}
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
	hist := "count,mean_ns,p50_ns,p95_ns,p99_ns,max_ns"
	want := []struct {
		sub  string
		keys []string
	}{
		{"", []string{"bytes", "cas_badval", "cas_hits", "cas_misses", "cmd_get", "cmd_set", "cmd_touch",
			"conn_batched_replies", "conn_buffers_idle", "conn_buffers_inuse", "conn_errors_io",
			"conn_errors_protocol", "conn_errors_timeout", "conn_flushes", "conn_writev_batches",
			"curr_items", "delete_hits", "delete_misses", "evictions", "expired_unfetched",
			"get_hits", "get_misses", "hash_buckets", "hash_expansions", "hash_items",
			"incr_hits", "incr_misses", "limit_maxbytes", "shards", "slabs_moved",
			"tm_abort_serial", "tm_aborts",
			"tm_inflight_switch", "tm_ro_fast_commit", "tm_ro_upgrade", "tm_start_serial",
			"tm_transactions", "tm_watchdog_backoff", "tm_watchdog_serialize", "total_items",
			"tx_commits", "tx_conflicts", "version"}},
		{"eventloop", []string{"affine_0_depth", "affine_1_depth", "affine_2_depth", "affine_3_depth",
			"affine_cap", "burst_ops count,mean,p50,p95,p99,max", "conns",
			"dispatch_ns " + hist, "event_overflow_spills",
			"eventloop", "overflow_len", "poller_probes", "poller_synthesized", "poller_wakeups",
			"shared_cap", "shared_depth", "worker_0_busy", "worker_1_busy", "worker_2_busy",
			"worker_3_busy", "worker_4_busy", "worker_5_busy", "workers"}},
		{"tm", []string{"abort_cause_0", "aborts", "branch", "commits", "events", "events_abort", "events_begin",
			"events_commit", "events_ro_fast_commit", "inflight_switch", "retries", "ro_fast_commit", "ro_upgrade",
			"serial_commits",
			"shard_0_aborts", "shard_0_algorithm", "shard_0_commits", "shard_0_ro_fast_commit",
			"shard_1_aborts", "shard_1_algorithm", "shard_1_commits", "shard_1_ro_fast_commit",
			"shard_2_aborts", "shard_2_algorithm", "shard_2_commits", "shard_2_ro_fast_commit",
			"shard_3_aborts", "shard_3_algorithm", "shard_3_commits", "shard_3_ro_fast_commit",
			"shards", "start_serial", "starts", "tracing"}},
		{"conflicts", []string{"conflict_edge_0", "conflicts_hash_bucket", "conflicts_s2/hash_bucket",
			"cross_shard_orec_conflicts", "orec_7", "tracing"}},
		{"latency", []string{"cmd_get " + hist, "cmd_set " + hist, "cmd_stats " + hist,
			"phase_commit " + hist, "tracing"}},
	}
	for _, w := range want {
		if got := shape(w.sub); !slices.Equal(got, w.keys) {
			t.Errorf("stats %s shape changed:\n got %q\nwant %q", w.sub, got, w.keys)
		}
	}
}

// TestStatsEventloopOverWire drives traffic through the event-loop transport
// and checks `stats eventloop` reports it.
func TestStatsEventloopOverWire(t *testing.T) {
	s, _ := startShardedEventLoop(t)
	conn, r := dialStats(t, s)

	fmt.Fprintf(conn, "set elhot 0 0 3\r\nabc\r\n")
	if line, _ := r.ReadString('\n'); !strings.HasPrefix(line, "STORED") {
		t.Fatalf("set reply %q", line)
	}
	for i := 0; i < 40; i++ {
		fmt.Fprintf(conn, "get elhot\r\n")
		for j := 0; j < 3; j++ { // VALUE, payload, END
			if _, err := r.ReadString('\n'); err != nil {
				t.Fatal(err)
			}
		}
	}

	// A burst is recorded when it ends, and a client that sends each command
	// as soon as the previous reply lands can keep one burst going through
	// all of them, this stats query included; poll until one has ended.
	var el map[string]string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		el = statsMap(t, conn, r, "eventloop")
		count, _, _ := strings.Cut(strings.TrimPrefix(el["burst_ops"], "count="), " ")
		if n, _ := strconv.ParseUint(count, 10, 64); n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("burst_ops line = %q, want a non-empty histogram", el["burst_ops"])
		}
	}
	if el["eventloop"] != "1" {
		t.Fatalf("eventloop flag = %q, want 1", el["eventloop"])
	}
	if w, _ := strconv.Atoi(el["workers"]); w != 6 {
		t.Fatalf("workers = %q, want 6", el["workers"])
	}
	if c, _ := strconv.Atoi(el["conns"]); c < 1 {
		t.Fatalf("conns = %q, want >= 1 (this connection)", el["conns"])
	}
	if wk, _ := strconv.ParseUint(el["poller_wakeups"], 10, 64); wk == 0 {
		t.Fatal("poller_wakeups = 0 after live traffic")
	}
	if spills, ok := el["event_overflow_spills"]; !ok {
		t.Fatal("event_overflow_spills missing from stats eventloop")
	} else if _, err := strconv.ParseUint(spills, 10, 64); err != nil {
		t.Fatalf("event_overflow_spills = %q, not a counter", spills)
	}
}

// TestStatsResetRacedOverWire is the protocol-level exactly-once check:
// concurrent `stats reset` commands racing live traffic must leave every
// counter coherent (no underflow blow-ups), keep tracing enabled, clear the
// who-aborted-whom edges, and preserve gauges (workers, conns).
func TestStatsResetRacedOverWire(t *testing.T) {
	s, c := startShardedEventLoop(t)
	obs := c.EnableTracing()
	// A synthetic edge no real transaction can produce: the resets must
	// clear it, and a fresh one must then count from zero.
	seedEdge := func() {
		obs.Record(&txobs.Event{Kind: txobs.KAbort, Orec: -1, Site: "seed_victim", Owner: "seed_owner"})
	}
	seedCount := func(m map[string]string) string {
		for k, v := range m {
			if n, rest, _ := strings.Cut(v, " "); strings.HasPrefix(k, "conflict_edge_") && rest == "seed_owner seed_victim (unlabeled)" {
				return n
			}
		}
		return ""
	}
	seedEdge()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // traffic the resets race against
		defer wg.Done()
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			fmt.Fprintf(conn, "set rr-%d 0 0 1\r\nx\r\n", i%32)
			if _, err := r.ReadString('\n'); err != nil {
				return
			}
		}
	}()

	var resetters sync.WaitGroup
	for i := 0; i < 4; i++ {
		resetters.Add(1)
		go func() {
			defer resetters.Done()
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for j := 0; j < 15; j++ {
				fmt.Fprintf(conn, "stats reset\r\n")
				if line, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(line, "RESET") {
					t.Errorf("stats reset reply %q err %v", line, err)
					return
				}
			}
		}()
	}
	resetters.Wait()
	close(stop)
	wg.Wait()

	conn, r := dialStats(t, s)
	st := statsMap(t, conn, r, "")
	for _, k := range []string{"cmd_set", "tm_transactions", "tm_aborts"} {
		if n, err := strconv.ParseUint(st[k], 10, 64); err != nil || n > 1<<40 {
			t.Fatalf("%s = %q after raced resets", k, st[k])
		}
	}
	conflicts := statsMap(t, conn, r, "conflicts")
	if conflicts["tracing"] != "1" {
		t.Fatalf("raced resets turned tracing off: %v", conflicts)
	}
	if n := seedCount(conflicts); n != "" {
		t.Fatalf("seeded conflict edge survived raced resets with count %s", n)
	}
	seedEdge()
	if n := seedCount(statsMap(t, conn, r, "conflicts")); n != "1" {
		t.Fatalf("fresh conflict edge after raced resets counts %q, want 1", n)
	}
	el := statsMap(t, conn, r, "eventloop")
	for _, k := range []string{"event_overflow_spills", "poller_wakeups", "poller_probes"} {
		n, err := strconv.ParseUint(el[k], 10, 64)
		if err != nil || n > 1<<40 {
			t.Fatalf("%s = %q after raced resets", k, el[k])
		}
	}
	if w, _ := strconv.Atoi(el["workers"]); w <= 0 {
		t.Fatalf("workers gauge lost after resets: %q", el["workers"])
	}
	if cn, _ := strconv.Atoi(el["conns"]); cn < 1 {
		t.Fatalf("conns gauge lost after resets: %q", el["conns"])
	}
}
