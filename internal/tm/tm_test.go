package tm_test

import (
	"testing"

	"repro/internal/stm"
	"repro/internal/tm"
)

func TestAtomicRelaxedRoundTrip(t *testing.T) {
	rt := stm.New(stm.Config{Algorithm: stm.MLWT})
	th := rt.NewThread()
	v := stm.NewTWord(1)

	if err := tm.Atomic(th, tm.Options{Site: "t"}, func(tx *stm.Tx) { v.Store(tx, 2) }); err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	if err := tm.Relaxed(th, tm.Options{StartSerial: true}, func(tx *stm.Tx) { v.Store(tx, v.Load(tx)+1) }); err != nil {
		t.Fatalf("Relaxed: %v", err)
	}
	if got := v.LoadDirect(); got != 3 {
		t.Fatalf("v = %d, want 3", got)
	}
	if got := rt.Stats().StartSerial; got != 1 {
		t.Fatalf("StartSerial = %d, want 1 (the Relaxed run)", got)
	}

	tm.StoreWord(th, v, 10)
	if got := tm.AddWord(th, v, 5); got != 15 {
		t.Fatalf("AddWord = %d, want 15", got)
	}
	if got := tm.LoadWord(th, v); got != 15 {
		t.Fatalf("LoadWord = %d, want 15", got)
	}
}

func TestReadOnlyOptionReachesFastPath(t *testing.T) {
	rt := stm.New(stm.Config{Algorithm: stm.MLWT})
	th := rt.NewThread()
	v := stm.NewTWord(9)
	var got uint64
	if err := tm.Atomic(th, tm.Options{ReadOnly: true}, func(tx *stm.Tx) { got = v.Load(tx) }); err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	if got != 9 {
		t.Fatalf("Load = %d", got)
	}
	if rt.Stats().ROFastCommits != 1 {
		t.Fatalf("ROFastCommits = %d, want 1", rt.Stats().ROFastCommits)
	}
}

// TestFrontDoorEquivalentToRawRun: the tm entry points must do exactly what a
// hand-built stm.Props run does — same effects, same stats deltas, same kind
// of transaction.
func TestFrontDoorEquivalentToRawRun(t *testing.T) {
	type counters struct {
		commits, startSerial, roFast uint64
	}
	// run executes one workload shape either through raw stm.Thread.Run with
	// hand-built Props (raw=true) or through the tm package, on a fresh
	// runtime, and returns the final word value plus the stats counters.
	run := func(raw bool) (uint64, counters) {
		rt := stm.New(stm.Config{Algorithm: stm.MLWT})
		th := rt.NewThread()
		v := stm.NewTWord(0)

		if raw {
			_ = th.Run(stm.Props{Kind: stm.Atomic}, func(tx *stm.Tx) { v.Store(tx, 5) })
			_ = th.Run(stm.Props{Kind: stm.Relaxed}, func(tx *stm.Tx) { v.Store(tx, v.Load(tx)*2) })
			_ = th.Run(stm.Props{Kind: stm.Relaxed, StartSerial: true}, func(tx *stm.Tx) { v.Store(tx, v.Load(tx)+1) })
			var load, add uint64
			_ = th.Run(stm.Props{Kind: stm.Atomic, ReadOnly: true}, func(tx *stm.Tx) { load = v.Load(tx) })
			_ = th.Run(stm.Props{Kind: stm.Atomic}, func(tx *stm.Tx) { add = v.Add(tx, 3) })
			_ = th.Run(stm.Props{Kind: stm.Atomic}, func(tx *stm.Tx) { v.Store(tx, load+add) })
		} else {
			_ = tm.Atomic(th, tm.Options{}, func(tx *stm.Tx) { v.Store(tx, 5) })
			_ = tm.Relaxed(th, tm.Options{}, func(tx *stm.Tx) { v.Store(tx, v.Load(tx)*2) })
			_ = tm.Relaxed(th, tm.Options{StartSerial: true}, func(tx *stm.Tx) { v.Store(tx, v.Load(tx)+1) })
			load := tm.LoadWord(th, v)
			add := tm.AddWord(th, v, 3)
			tm.StoreWord(th, v, load+add)
		}
		s := rt.Stats()
		return v.LoadDirect(), counters{s.Commits, s.StartSerial, s.ROFastCommits}
	}

	rawVal, rawStats := run(true)
	newVal, newStats := run(false)
	if rawVal != newVal {
		t.Errorf("final value: raw Props %d, tm %d", rawVal, newVal)
	}
	if rawStats != newStats {
		t.Errorf("stats deltas: raw Props %+v, tm %+v", rawStats, newStats)
	}
}
