package fingerprint

import (
	"fmt"
	"sync"
	"testing"
)

func h64(s string) uint64 {
	// FNV-1a + avalanche, matching the engine's routing hash shape closely
	// enough for tests.
	var hv uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		hv ^= uint64(s[i])
		hv *= 1099511628211
	}
	hv ^= hv >> 33
	hv *= 0xff51afd7ed558ccd
	hv ^= hv >> 33
	return hv
}

// TestSketchTopK: a heavily skewed stream must surface the hot keys with
// counts that dominate the tail, and Space-Saving's guarantee holds: any
// key with frequency > N/TopK is monitored.
func TestSketchTopK(t *testing.T) {
	var s Sketch
	// 3 hot keys at 1000 each, 100 cold keys at 3 each.
	for i := 0; i < 1000; i++ {
		for _, k := range []string{"hot_a", "hot_b", "hot_c"} {
			s.Record(h64(k), []byte(k))
		}
	}
	for r := 0; r < 3; r++ {
		for i := 0; i < 100; i++ {
			k := fmt.Sprintf("cold_%03d", i)
			s.Record(h64(k), []byte(k))
		}
	}
	got := s.collect(nil)
	counts := map[string]uint64{}
	for _, hk := range got {
		counts[hk.Key] = hk.Count
	}
	for _, k := range []string{"hot_a", "hot_b", "hot_c"} {
		if counts[k] < 1000 {
			t.Fatalf("hot key %q count %d, want ≥1000 (sketch: %v)", k, counts[k], got)
		}
	}
}

// TestRecorderMixAndConcentration: op-mix counters and the merged
// concentration estimate must reflect a single-hot-key storm.
func TestRecorderMixAndConcentration(t *testing.T) {
	o := New(2)
	r := o.Shard(0).Recorder()
	hot := []byte("stormkey")
	for i := 0; i < 900; i++ {
		r.Record(OpRead, h64("stormkey"), hot, 64, true)
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("bg_%04d", i)
		r.Record(OpWrite, h64(k), []byte(k), 128, true)
	}
	snap := o.Snapshot()
	s0 := snap.Shards[0]
	if s0.Reads != 900 || s0.Writes != 100 || s0.Ops != 1000 {
		t.Fatalf("mix: reads=%d writes=%d ops=%d", s0.Reads, s0.Writes, s0.Ops)
	}
	if s0.Concentration < 0.9 {
		t.Fatalf("concentration %.3f, want ≥0.9 for a 90%% single-key storm", s0.Concentration)
	}
	if len(s0.HotKeys) == 0 || s0.HotKeys[0].Key != "stormkey" {
		t.Fatalf("hot keys %v, want stormkey first", s0.HotKeys)
	}
	if c := snap.Shards[1].Concentration; c != 0 {
		t.Fatalf("idle shard concentration %.3f, want 0", c)
	}
	if s0.VSize.Count != 1000 || s0.VSize.Max < 128 {
		t.Fatalf("vsize snapshot %+v", s0.VSize)
	}
}

// TestDecayWindow: after enough decay ticks with no new traffic the window
// drains toward zero, so concentration reflects *current* traffic.
func TestDecayWindow(t *testing.T) {
	o := New(1)
	r := o.Shard(0).Recorder()
	for i := 0; i < 1000; i++ {
		r.Record(OpRead, h64("old_hot"), []byte("old_hot"), 32, true)
	}
	o.Shard(0).AddAborts(AbortConflict, 800)
	if got := o.Snapshot().Shards[0].Ops; got != 1000 {
		t.Fatalf("pre-decay ops %d", got)
	}
	// 15 halvings: 1000 >> 15 == 0.
	for i := 0; i < 15*decayEvery; i++ {
		o.Tick()
	}
	s := o.Snapshot().Shards[0]
	if s.Ops != 0 || s.Aborts.Conflicts != 0 {
		t.Fatalf("post-decay ops=%d conflicts=%d, want 0/0", s.Ops, s.Aborts.Conflicts)
	}
}

// TestResetClearsEverything: stats-reset semantics — counters and sketches
// clear, and the observer is immediately usable again.
func TestResetClearsEverything(t *testing.T) {
	o := New(1)
	r := o.Shard(0).Recorder()
	r.Record(OpDelete, h64("k"), []byte("k"), -1, false)
	o.Shard(0).AddAborts(AbortWatchdog, 5)
	o.TxnQueue.Record(1234)
	o.TxnSerialWait.Record(99)
	o.Reset()
	s := o.Snapshot()
	sh := s.Shards[0]
	if sh.Ops != 0 || sh.Misses != 0 || len(sh.HotKeys) != 0 || sh.Aborts.Watchdog != 0 {
		t.Fatalf("shard not cleared: %+v", sh)
	}
	if s.TxnQueue.Count != 0 || s.TxnSerialWait.Count != 0 {
		t.Fatalf("txn hists not cleared: %+v", s)
	}
	r.Record(OpRead, h64("k2"), []byte("k2"), 8, true)
	if o.Snapshot().Shards[0].Ops != 1 {
		t.Fatal("observer dead after reset")
	}
}

// TestHistQuantiles: bucket upper-bound quantiles must bracket the data.
func TestHistQuantiles(t *testing.T) {
	var h LogHist
	for i := 0; i < 99; i++ {
		h.Record(100) // bucket 7, ub 127
	}
	h.Record(100000) // bucket 17
	s := h.Snapshot()
	if s.Count != 100 || s.Max != 100000 {
		t.Fatalf("count=%d max=%d", s.Count, s.Max)
	}
	if s.P50 < 100 || s.P50 > 127 {
		t.Fatalf("p50 %d outside [100,127]", s.P50)
	}
	if s.P99 < 100 {
		t.Fatalf("p99 %d", s.P99)
	}
	if s.Max != 100000 {
		t.Fatalf("max %d", s.Max)
	}
}

// TestFingerprintConcurrentRace: many writers (one per recorder, honoring
// the single-writer contract), plus concurrent snapshots, decay ticks and
// resets. Run under -race by make fingerprint-race.
func TestFingerprintConcurrentRace(t *testing.T) {
	o := New(4)
	var writers sync.WaitGroup
	for w := 0; w < 8; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			r := o.Shard(w % 4).Recorder()
			for i := 0; i < 5000; i++ {
				k := fmt.Sprintf("k_%d_%d", w, i%37)
				r.Record(Op(i%int(numOps)), h64(k), []byte(k), i%2048, i%3 != 0)
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			o.Tick()
			_ = o.Snapshot()
			o.TxnValidate.Record(42)
		}
	}()
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; i < 50; i++ {
			o.Reset()
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
}
