package mctop_test

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/mctop"
	"repro/internal/server"
)

// startServer boots a 4-shard cache with tracing on — the deployment mctop
// is built for. A seeded commit delay widens the commit window so that
// concurrent increments conflict.
func startServer(t *testing.T) (*engine.Cache, *server.Server) {
	t.Helper()
	in := fault.New(0x6d63746f70) // fixed seed: deterministic delays
	in.Set(fault.STMCommitDelay, 0.05)
	c := engine.New(engine.Config{Branch: engine.ITOnCommit, HashPower: 8, Shards: 4, Fault: in})
	c.Start()
	c.EnableTracing()
	s, err := server.ListenConfig(c, server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		c.Stop()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		c.Stop()
	})
	return c, s
}

// drive sends one get and one set per round over the wire, with a fresh key
// per set so that every shard commits.
func drive(t *testing.T, addr string, rounds int) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	expect := func(want string) {
		t.Helper()
		line, err := r.ReadString('\n')
		if err != nil || !strings.HasPrefix(line, want) {
			t.Fatalf("reply %q (err %v), want prefix %q", line, err, want)
		}
	}
	fmt.Fprintf(conn, "set scorcher 0 0 4\r\nhhhh\r\n")
	expect("STORED")
	for i := 0; i < rounds; i++ {
		fmt.Fprintf(conn, "get scorcher\r\n")
		expect("VALUE")
		r.ReadString('\n') // value
		r.ReadString('\n') // END
		fmt.Fprintf(conn, "set cold-%d 0 0 2\r\ncc\r\n", i)
		expect("STORED")
	}
}

// contend runs in-place increments from 8 workers until the server has
// recorded a conflict abort.
func contend(t *testing.T, c *engine.Cache) {
	t.Helper()
	w0 := c.NewWorker()
	for g := 0; g < 8; g++ {
		w0.Set([]byte(fmt.Sprintf("ctr-%d", g)), 0, 0, []byte("1000000000"))
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(c.Observer().Report(0).ConflictLabels) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no conflict after 10s: %+v", c.Observer().Report(0))
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(key []byte) {
				defer wg.Done()
				w := c.NewWorker()
				for i := 0; i < 200; i++ {
					w.Incr(key, 1)
				}
			}([]byte(fmt.Sprintf("ctr-%d", g%2)))
		}
		wg.Wait()
	}
}

func TestMctopLiveServerSnapshot(t *testing.T) {
	c, s := startServer(t)
	drive(t, s.Addr(), 100)

	first, err := mctop.Fetch(s.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s.Addr(), 50)
	contend(t, c)
	// Frames need distinct timestamps for the rate columns.
	time.Sleep(10 * time.Millisecond)
	cur, err := mctop.Fetch(s.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	if len(cur.Shards) != 4 {
		t.Fatalf("shards = %d, want 4", len(cur.Shards))
	}
	for i, sh := range cur.Shards {
		if sh.Commits == 0 {
			t.Fatalf("shard %d reports no commits: %+v", i, cur.Shards)
		}
	}
	if !cur.Tracing || cur.HotLabel == "" || cur.HotCount == 0 {
		t.Fatalf("no hottest conflict label under contention: tracing=%v label=%q count=%d",
			cur.Tracing, cur.HotLabel, cur.HotCount)
	}
	if e := cur.TopEdge; e.Count == 0 || e.Label == "" {
		t.Fatalf("no top conflict edge under contention: %+v", e)
	}
	if cur.Workers == 0 {
		t.Fatalf("event-loop telemetry missing: %+v", cur)
	}
	if cur.PollWakeups == 0 {
		t.Fatal("poller wakeups = 0 after live traffic")
	}
	if cur.CmdGet <= first.CmdGet {
		t.Fatalf("cmd_get did not advance between frames: %d -> %d", first.CmdGet, cur.CmdGet)
	}

	// The rendered console carries the transport line, the conflict line
	// naming the hot structure, and one numbered row per shard with rates.
	out := mctop.Render(cur, first)
	wants := []string{"mctop —", "transport: event-loop", "poller: wakeups=", "conflicts: hottest " + cur.HotLabel, "top edge:", "shard"}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered frame missing %q:\n%s", want, out)
		}
	}
	for i := range cur.Shards {
		if !strings.Contains(out, fmt.Sprintf("\n%-5d", i)) {
			t.Fatalf("rendered frame missing row for shard %d:\n%s", i, out)
		}
	}
	if strings.Contains(out, "tm_commit=-") {
		t.Fatalf("second-frame render should have rates:\n%s", out)
	}

	// Render with no previous frame blanks the rate columns instead of
	// dividing by zero.
	if out0 := mctop.Render(cur, nil); !strings.Contains(out0, "get=-") {
		t.Fatalf("first-frame render should blank rates:\n%s", out0)
	}
}

// TestMctopSingleShardServer covers the degraded lines: a single-shard
// server without tracing still yields a frame — its one shard row from stats
// tm's shard_0_* lines, its transport with one affine queue — and a
// renderable screen.
func TestMctopSingleShardServer(t *testing.T) {
	c := engine.New(engine.Config{Branch: engine.ITOnCommit, HashPower: 8, Shards: 1})
	c.Start()
	s, err := server.Listen(c, "127.0.0.1:0")
	if err != nil {
		c.Stop()
		t.Fatal(err)
	}
	defer func() {
		s.Close()
		c.Stop()
	}()
	drive(t, s.Addr(), 5)
	f, err := mctop.Fetch(s.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if f.Workers != 3 || len(f.AffineDepth) != 1 {
		t.Fatalf("workers = %d, affine queues = %d, want 3 and 1 at one shard", f.Workers, len(f.AffineDepth))
	}
	if f.Tracing || f.HotLabel != "" {
		t.Fatalf("untraced server reported conflicts: %+v", f)
	}
	if len(f.Shards) != 1 || f.Shards[0].Commits == 0 {
		t.Fatalf("single-shard row = %+v, want one row with commits", f.Shards)
	}
	out := mctop.Render(f, nil)
	for _, want := range []string{"transport: event-loop  workers=3", "affine=[0]", "conflicts: tracing off", "\n0    "} {
		if !strings.Contains(out, want) {
			t.Fatalf("single-shard render missing %q:\n%s", want, out)
		}
	}
}
