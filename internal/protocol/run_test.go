package protocol

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/stm"
)

// protocolMutant runs the seeded-bug cases, which are expected to FAIL the
// run tests and are therefore skipped by default:
//
//	go test -run GetRunJoinMutant ./internal/protocol -protocol.mutant
var protocolMutant = flag.Bool("protocol.mutant", false, "run the mutation cases (seeded bugs the protocol tests must catch)")

// serveChunks serves a new connection whose transport delivers each chunk in
// one read, one ServeOne at a time until EOF. It returns the replies, the number
// of commands the first ServeOne left stashed, and how many ServeOne calls
// served a command.
func serveChunks(t *testing.T, c *engine.Cache, cc *countingConn) (out string, stashed, calls int) {
	t.Helper()
	return serveConn(t, NewConn(c.NewWorker(), cc), cc)
}

// serveConn is serveChunks on a connection already made over cc.
func serveConn(t *testing.T, pc *Conn, cc *countingConn) (out string, stashed, calls int) {
	t.Helper()
	for {
		err := pc.ServeOne()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("ServeOne %d: %v", calls, err)
		}
		if calls == 0 {
			stashed = len(pc.sc.stash)
		}
		calls++
	}
	if err := pc.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return cc.out.String(), stashed, calls
}

func chunked(chunks ...string) *countingConn {
	cc := &countingConn{}
	for _, s := range chunks {
		cc.chunks = append(cc.chunks, []byte(s))
	}
	return cc
}

// runCache is a cache that is never started, so only SetTime moves its clock
// and no maintenance thread commits a transaction.
func runCache(t *testing.T, shards int) *engine.Cache {
	t.Helper()
	c := engine.New(engine.Config{Branch: engine.ITOnCommit, Shards: shards, HashPower: 8})
	if out := runTextOn(t, c, "set a 1 0 2\r\nva\r\nset b 2 0 2\r\nvb\r\nset c 3 0 2\r\nvc\r\n"); out != strings.Repeat("STORED\r\n", 3) {
		t.Fatalf("setup replies: %q", out)
	}
	return c
}

// TestGetRunServesOneCommandPerCall: a run answers every command of it in
// order, exactly as the same commands sent one at a time are answered, and
// each ServeOne serves one command of it, on both protocols.
func TestGetRunServesOneCommandPerCall(t *testing.T) {
	c := runCache(t, 1)
	text := []string{"get a\r\n", "gets b c\r\n", "get missing\r\n", "get c a\r\n"}
	bin := []string{
		string(binFrame(OpGetKQ, nil, []byte("a"), nil, 1)),
		string(binFrame(OpGetQ, nil, []byte("missing"), nil, 2)),
		string(binFrame(OpGetKQ, nil, []byte("c"), nil, 3)),
		string(binFrame(OpNoop, nil, nil, nil, 4)),
	}
	for _, tc := range []struct {
		name    string
		cmds    []string
		stashed int
	}{{"text", text, 3}, {"binary", bin, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			want, _, _ := serveChunks(t, c, chunked(tc.cmds...))
			got, stashed, calls := serveChunks(t, c, chunked(strings.Join(tc.cmds, "")))
			if stashed != tc.stashed {
				t.Errorf("first command stashed %d, want %d", stashed, tc.stashed)
			}
			if calls != len(tc.cmds) {
				t.Errorf("%d ServeOne calls served %d commands", calls, len(tc.cmds))
			}
			if got != want {
				t.Errorf("pipelined replies %q, want %q", got, want)
			}
		})
	}
}

// pipelinedReadAfterWrite sends set k 1; get k; set k 2; get k in one write
// and returns what the second get read.
func pipelinedReadAfterWrite(t *testing.T, b engine.Branch, mutant bool) string {
	t.Helper()
	c := newBatchCache(t, b)
	cc := chunked("set k 0 0 1\r\n1\r\nget k\r\nset k 0 0 1\r\n2\r\nget k\r\n")
	pc := NewConn(c.NewWorker(), cc)
	pc.joinAcrossLines = mutant
	out, _, _ := serveConn(t, pc, cc)
	const first = "STORED\r\nVALUE k 0 1\r\n1\r\nEND\r\nSTORED\r\nVALUE k 0 1\r\n"
	rest, ok := strings.CutPrefix(out, first)
	if !ok || !strings.HasSuffix(rest, "\r\nEND\r\n") {
		t.Fatalf("replies %q", out)
	}
	return strings.TrimSuffix(rest, "\r\nEND\r\n")
}

// TestGetRunEndsAtWrite: a set pipelined between two gets ends the first
// get's run, so the second get reads the connection's own write.
func TestGetRunEndsAtWrite(t *testing.T) {
	for _, b := range []engine.Branch{engine.ITOnCommit, engine.ITNoLock, engine.Baseline} {
		if got := pipelinedReadAfterWrite(t, b, false); got != "2" {
			t.Errorf("%v: the get after set k 2 read %q", b, got)
		}
	}
}

// TestGetRunJoinMutant seeds the bug the end of a run exists to prevent — a
// run that joins the gets after a write to its snapshot — and requires
// TestGetRunEndsAtWrite's check to catch it on every branch it runs.
func TestGetRunJoinMutant(t *testing.T) {
	if !*protocolMutant {
		t.Skip("mutation case: run with -protocol.mutant")
	}
	for _, b := range []engine.Branch{engine.ITOnCommit, engine.ITNoLock, engine.Baseline} {
		if got := pipelinedReadAfterWrite(t, b, true); got == "2" {
			t.Errorf("%v: a run joined across a set went unnoticed", b)
		}
	}
}

// TestGetRunReadsItsSnapshot: another connection's set that lands after a
// run's snapshot, before a later get of the run replies, is not what that get
// reads; the connection's next get, outside the run, reads it.
func TestGetRunReadsItsSnapshot(t *testing.T) {
	c := runCache(t, 1)
	cc := chunked("get a\r\nget a\r\n", "get a\r\n")
	pc := NewConn(c.NewWorker(), cc)
	if err := pc.ServeOne(); err != nil {
		t.Fatal(err)
	}
	if len(pc.sc.stash) != 1 {
		t.Fatalf("%d stashed commands, want 1", len(pc.sc.stash))
	}
	if out := runTextOn(t, c, "set a 1 0 2\r\nv2\r\n"); out != "STORED\r\n" {
		t.Fatalf("set from another connection: %q", out)
	}
	out, _, _ := serveConn(t, pc, cc)
	want := strings.Repeat("VALUE a 1 2\r\nva\r\nEND\r\n", 2) + "VALUE a 1 2\r\nv2\r\nEND\r\n"
	if out != want {
		t.Errorf("replies %q, want %q", out, want)
	}
}

// TestGetRunStops: a run ends before a command that is not a get, a get the
// protocol refuses, and a line not yet complete; what follows is answered
// exactly as if nothing had been pipelined.
func TestGetRunStops(t *testing.T) {
	c := runCache(t, 1)
	long := strings.Repeat("x", MaxKeyLen+1)
	for _, tc := range []struct {
		name   string
		chunks []string
	}{
		{"txbegin", []string{"get a\r\nget b\r\ntxbegin\r\nget a\r\ntxcommit\r\nget c\r\n"}},
		{"key too long", []string{"get a\r\nget b\r\nget " + long + "\r\nget c\r\n"}},
		{"get without keys", []string{"get a\r\nget b\r\nget\r\nget c\r\n"}},
		{"incomplete line", []string{"get a\r\nget b\r\nget", " c\r\nget a\r\n"}},
		{"incr", []string{"get a\r\nget b\r\nincr a 1\r\nget c\r\n"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var lines []string
			for _, l := range strings.SplitAfter(strings.Join(tc.chunks, ""), "\n") {
				if l != "" {
					lines = append(lines, l)
				}
			}
			want, _, _ := serveChunks(t, c, chunked(lines...))
			got, stashed, calls := serveChunks(t, c, chunked(tc.chunks...))
			if stashed != 1 {
				t.Errorf("first get stashed %d commands, want 1 (get b)", stashed)
			}
			if calls != len(lines) {
				t.Errorf("%d ServeOne calls for %d commands", calls, len(lines))
			}
			if got != want {
				t.Errorf("replies %q, want %q", got, want)
			}
		})
	}
}

// TestGetRunCommitsPerShard is TestCommitsPerCommand for a run: 32 buffered
// single-key gets, 16 per shard of a 2-shard cache, commit one read-only
// batch per shard.
func TestGetRunCommitsPerShard(t *testing.T) {
	c := engine.New(engine.Config{Branch: engine.ITOnCommit, Shards: 2, HashPower: 8})
	w := c.NewWorker()
	var per [2]int
	var in strings.Builder
	for i := 0; per[0] < engine.MultiGetBatch || per[1] < engine.MultiGetBatch; i++ {
		k := fmt.Sprintf("k%03d", i)
		if s := c.ShardOf([]byte(k)); per[s] < engine.MultiGetBatch {
			per[s]++
			w.Set([]byte(k), 0, 0, []byte("v"))
			fmt.Fprintf(&in, "get %s\r\n", k)
		}
	}
	total := func() (s stm.Snapshot) {
		for _, ss := range c.ShardStats() {
			s.Commits += ss.Commits
			s.Aborts += ss.Aborts
			s.ROFastCommits += ss.ROFastCommits
		}
		return s
	}
	before := total()
	out, stashed, calls := serveChunks(t, c, chunked(in.String()))
	d := total().Sub(before)
	if n := strings.Count(out, "VALUE "); n != 32 || stashed != 31 || calls != 32 {
		t.Fatalf("%d hits, %d stashed, %d calls; want 32, 31, 32", n, stashed, calls)
	}
	if d.Commits > 2 || d.ROFastCommits != d.Commits || d.Aborts != 0 {
		t.Errorf("32 gets: %d commits (%d read-only fast), %d aborts; want <= 2, all read-only, 0", d.Commits, d.ROFastCommits, d.Aborts)
	}
}

// TestGetRunStatsExact: after a run that mixes get, gets, multi-key gets,
// misses and an expired key, cmd_get, get_hits and get_misses count each key
// once.
func TestGetRunStatsExact(t *testing.T) {
	c := runCache(t, 1)
	now := c.Now()
	runTextOn(t, c, fmt.Sprintf("set gone 0 %d 4\r\ndead\r\nstats reset\r\n", now+5))
	c.SetTime(now + 10)
	out, stashed, _ := serveChunks(t, c, chunked("get a\r\ngets b missing\r\nget gone a c\r\nget missing2\r\n"))
	if stashed != 3 || strings.Count(out, "VALUE ") != 4 || strings.Count(out, "END\r\n") != 4 {
		t.Fatalf("%d stashed, replies %q", stashed, out)
	}
	stats := runTextOn(t, c, "stats\r\n")
	for k, want := range map[string]string{"cmd_get": "7", "get_hits": "4", "get_misses": "3", "expired_unfetched": "1"} {
		if got := statValue(stats, k); got != want {
			t.Errorf("%s = %s, want %s", k, got, want)
		}
	}
}

// TestGetRunStashDiesWithConnection: a connection torn down with stashed
// commands pending returns its buffer set clean. The next connection to take
// the set sends a line as long as the stashed one, which a stale stash would
// answer with the dead connection's snapshot.
func TestGetRunStashDiesWithConnection(t *testing.T) {
	c := runCache(t, 1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := c.NewWorker()
			for i := 0; i < 100; i++ {
				torn := NewConn(w, chunked("get a\r\nget b\r\n"))
				if err := torn.ServeOne(); err != nil {
					t.Errorf("ServeOne: %v", err)
					return
				}
				if len(torn.sc.stash) != 1 {
					t.Errorf("%d stashed commands, want 1", len(torn.sc.stash))
					return
				}
				torn.ReleaseBuffers(true)
				cc := chunked("get c\r\n")
				if err := NewConn(w, cc).Serve(); err != nil {
					t.Errorf("Serve: %v", err)
					return
				}
				if got, want := cc.out.String(), "VALUE c 3 2\r\nvc\r\nEND\r\n"; got != want {
					t.Errorf("next connection read %q, want %q", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
