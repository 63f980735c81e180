package server_test

import (
	"flag"
	"testing"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/torture"
)

var tortureShort = flag.Bool("torture.short", false, "run shrunken torture schedules")

// TestTortureNetwork is the end-to-end acceptance run: the full fault triad
// (connection drops, slow clients, slab allocation failures) plus the STM and
// maintenance schedule, driven through the TCP front end, where every
// connection rides the poller and the shard-affine worker pool. Zero
// invariant violations and a clean graceful drain are required.
func TestTortureNetwork(t *testing.T) {
	for _, b := range []engine.Branch{engine.Semaphore, engine.IPOnCommit} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			t.Parallel()
			for _, seed := range []uint64{3, 7, 0xFACADE} {
				rep := torture.RunNetwork(torture.Config{
					Branch: b,
					Seed:   seed,
					Short:  *tortureShort,
				})
				if rep.Failed() {
					t.Errorf("%s", rep)
				} else {
					t.Logf("%s", rep)
				}
			}
		})
	}
}

// TestTortureNetworkEventLoop reruns the chaos schedule with the event loop
// on the portable fallback poller (poller.NewFallback, what every non-Linux
// build serves with), bound through the newPoller seam: same fault triad,
// same invariants, but readiness comes from its probe goroutines instead of
// epoll.
func TestTortureNetworkEventLoop(t *testing.T) {
	t.Cleanup(server.UseFallbackPoller())
	for _, b := range []engine.Branch{engine.Semaphore, engine.IPOnCommit} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			t.Parallel()
			for _, seed := range []uint64{7, 0xFACADE} {
				rep := torture.RunNetwork(torture.Config{
					Branch: b,
					Seed:   seed,
					Short:  *tortureShort,
				})
				if rep.Failed() {
					t.Errorf("%s", rep)
				} else {
					t.Logf("%s", rep)
				}
			}
		})
	}
}

// TestTortureNetworkEventLoopSharded drives the sharded cache through the
// event-loop transport. The run enables tracing and fails on any
// cross-shard orec conflict: the worker pool's affinity routing must never
// let two TM domains meet on one ownership record.
func TestTortureNetworkEventLoopSharded(t *testing.T) {
	rep := torture.RunNetwork(torture.Config{
		Branch: engine.ITOnCommit,
		Seed:   11,
		Shards: 4,
		Short:  *tortureShort,
	})
	if rep.Failed() {
		t.Errorf("%s", rep)
	} else {
		t.Logf("%s", rep)
	}
}
