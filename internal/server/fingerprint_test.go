package server

import (
	"bufio"
	"fmt"
	"net"
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

// TestEventLoopOverflowSpill exercises the enqueue spill path white-box: a
// loop with a one-slot shared queue and no workers must divert the excess to
// the overflow list, count each spill, and report the overflow length as a
// gauge that survives a counter reset.
func TestEventLoopOverflowSpill(t *testing.T) {
	ev := &evLoop{
		sharedQ: make(chan *evConn, 1),
		conns:   make(map[poller.Token]*evConn),
	}
	ev.stats.winStart.Store(time.Now().UnixNano())

	mkConn := func() *evConn {
		a, b := net.Pipe()
		t.Cleanup(func() { a.Close(); b.Close() })
		return &evConn{pc: protocol.NewConnPooled(a), fd: -1}
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

// startFPServer boots a 4-shard fingerprinting cache on the event-loop
// transport and returns the server plus its cache.
func startFPServer(t *testing.T) (*Server, *engine.Cache) {
	t.Helper()
	c := engine.New(engine.Config{Branch: engine.ITOnCommit, HashPower: 8, Shards: 4})
	c.Start()
	c.EnableFingerprint()
	s, err := ListenConfig(c, Config{Addr: "127.0.0.1:0", EventLoop: true})
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

func sumShardStat(m map[string]string, field string) uint64 {
	var total uint64
	for k, v := range m {
		if strings.HasPrefix(k, "shard_") && strings.HasSuffix(k, "_"+field) {
			n, _ := strconv.ParseUint(v, 10, 64)
			total += n
		}
	}
	return total
}

// TestStatsFingerprintAndEventloopOverWire drives traffic through the
// event-loop transport and checks both new stats surfaces report it.
func TestStatsFingerprintAndEventloopOverWire(t *testing.T) {
	s, _ := startFPServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	fmt.Fprintf(conn, "set fphot 0 0 3\r\nabc\r\n")
	if line, _ := r.ReadString('\n'); !strings.HasPrefix(line, "STORED") {
		t.Fatalf("set reply %q", line)
	}
	for i := 0; i < 40; i++ {
		fmt.Fprintf(conn, "get fphot\r\n")
		for j := 0; j < 3; j++ { // VALUE, payload, END
			if _, err := r.ReadString('\n'); err != nil {
				t.Fatal(err)
			}
		}
	}

	fp := statsMap(t, conn, r, "fingerprint")
	if fp["fingerprint"] != "1" {
		t.Fatalf("fingerprint flag = %q, want 1", fp["fingerprint"])
	}
	if fp["shards"] != "4" {
		t.Fatalf("shards = %q, want 4", fp["shards"])
	}
	if ops := sumShardStat(fp, "ops"); ops < 41 {
		t.Fatalf("summed shard ops = %d, want >= 41", ops)
	}
	hot := false
	for k, v := range fp {
		if strings.Contains(k, "_hot_") && strings.HasSuffix(v, " fphot") {
			hot = true
		}
	}
	if !hot {
		t.Fatalf("hot key fphot missing from stats fingerprint: %v", fp)
	}

	el := statsMap(t, conn, r, "eventloop")
	if el["eventloop"] != "1" {
		t.Fatalf("eventloop flag = %q, want 1", el["eventloop"])
	}
	if w, _ := strconv.Atoi(el["workers"]); w <= 0 {
		t.Fatalf("workers = %q, want > 0", el["workers"])
	}
	if c, _ := strconv.Atoi(el["conns"]); c < 1 {
		t.Fatalf("conns = %q, want >= 1 (this connection)", el["conns"])
	}
	if wk, _ := strconv.ParseUint(el["poller_wakeups"], 10, 64); wk == 0 {
		t.Fatal("poller_wakeups = 0 after live traffic")
	}
	if !strings.Contains(el["burst_ops"], "count=") {
		t.Fatalf("burst_ops line = %q, want histogram summary", el["burst_ops"])
	}
	if spills, ok := el["event_overflow_spills"]; !ok {
		t.Fatal("event_overflow_spills missing from stats eventloop")
	} else if _, err := strconv.ParseUint(spills, 10, 64); err != nil {
		t.Fatalf("event_overflow_spills = %q, not a counter", spills)
	}
}

// TestStatsResetRacedOverWire is the protocol-level exactly-once check:
// concurrent `stats reset` commands racing live traffic must leave every new
// counter coherent (no underflow blow-ups), keep fingerprinting and tracing
// enabled, clear the who-aborted-whom edges, and preserve gauges (workers,
// conns).
func TestStatsResetRacedOverWire(t *testing.T) {
	s, c := startFPServer(t)
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

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	if !c.FingerprintEnabled() {
		t.Fatal("raced resets turned fingerprinting off")
	}
	fp := statsMap(t, conn, r, "fingerprint")
	if fp["fingerprint"] != "1" {
		t.Fatalf("fingerprint flag after resets = %q", fp["fingerprint"])
	}
	if ops := sumShardStat(fp, "ops"); ops > 1<<40 {
		t.Fatalf("shard ops implausible after raced resets: %d", ops)
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
