package txobs_test

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/protocol"
)

// TestConflictEdgesNameHotLabel is the acceptance test for who-aborted-whom:
// a seeded fault-injection run widens every commit window while eight
// goroutines increment their own keys in place, so the one word all of them
// write is the engine's global CAS counter. The heaviest conflict edge, and
// the `stats conflicts` lines rendered from it, must name that label.
func TestConflictEdgesNameHotLabel(t *testing.T) {
	in := fault.New(0x746d2d747261636b) // fixed seed: deterministic delays
	in.Set(fault.STMCommitDelay, 0.05)  // widen the commit window to force conflicts
	c := engine.New(engine.Config{Branch: engine.ITOnCommit, Shards: 1, HashPower: 8, Fault: in})
	c.Start()
	defer c.Stop()
	obs := c.EnableTracing()

	// Fixed-width values, so increments update in place (no reallocation,
	// no slab traffic).
	w0 := c.NewWorker()
	for g := 0; g < 8; g++ {
		w0.Set([]byte(fmt.Sprintf("key-%d", g)), 0, 0, []byte("1000000000"))
	}

	deadline := time.Now().Add(10 * time.Second)
	for len(obs.Report(0).ConflictEdges) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no conflict edge after 10s: %+v", obs.Report(0))
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(key []byte) {
				defer wg.Done()
				w := c.NewWorker()
				for i := 0; i < 400; i++ {
					w.Incr(key, 1)
				}
			}([]byte(fmt.Sprintf("key-%d", g)))
		}
		wg.Wait()
	}

	r := obs.Report(0)
	if top := r.ConflictEdges[0]; top.Label != "cas_counter" {
		t.Fatalf("heaviest edge %+v does not name the hot label cas_counter:\n%+v", top, r)
	}
	var out bytes.Buffer
	pc := protocol.NewConn(c.NewWorker(), struct {
		io.Reader
		io.Writer
	}{strings.NewReader("stats conflicts\r\n"), &out})
	if err := pc.Serve(); err != nil {
		t.Fatal(err)
	}
	var first string
	for _, line := range strings.Split(out.String(), "\r\n") {
		if strings.HasPrefix(line, "STAT conflict_edge_0 ") {
			first = line
		}
	}
	if !strings.HasSuffix(first, " cas_counter") {
		t.Fatalf("stats conflicts does not lead with a cas_counter edge:\n%s", out.String())
	}
}
