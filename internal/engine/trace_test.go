package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/txobs"
)

// TestTraceResetToggleRace is the regression test for `stats reset` racing
// tracing toggles: workers run traffic while one goroutine flips the txobs
// observer on and off and another fires ResetStats — all concurrently, under
// -race. Nothing here asserts counts (the interleavings make them
// unpredictable); the test's job is that the exactly-once reset and the
// toggles never tear a data structure.
func TestTraceResetToggleRace(t *testing.T) {
	c := New(Config{Branch: ITOnCommit, Shards: 2, HashPower: 8})
	c.Start()
	defer c.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(body func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				body()
			}
		}()
	}

	for g := 0; g < 4; g++ {
		w := c.NewWorker()
		key := []byte(fmt.Sprintf("race-key-%d", g%2))
		loop(func() {
			w.Set(key, 0, 0, []byte("v"))
			w.Get(key)
		})
	}
	loop(func() {
		c.EnableTracing()
		c.DisableTracing()
	})
	rw := c.NewWorker()
	loop(func() {
		rw.ResetStats()
		time.Sleep(time.Millisecond)
	})

	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The observer must still be functional after the storm.
	obs := c.EnableTracing()
	before := obs.KindCount(txobs.KCommit)
	c.NewWorker().Set([]byte("after"), 0, 0, []byte("v"))
	if obs.KindCount(txobs.KCommit) == before {
		t.Fatal("observer dead after reset/toggle storm")
	}
}
