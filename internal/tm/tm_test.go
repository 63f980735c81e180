package tm_test

import (
	"errors"
	"testing"

	"repro/internal/stm"
	"repro/internal/tm"
)

func TestOptionsBuilder(t *testing.T) {
	o := tm.With(tm.ReadOnly(), tm.StartSerial(), tm.Label("site"), tm.MaxRetries(3))
	want := tm.Options{ReadOnly: true, StartSerial: true, Site: "site", MaxRetries: 3}
	if o != want {
		t.Fatalf("With(...) = %+v, want %+v", o, want)
	}
	if z := tm.With(); z != (tm.Options{}) {
		t.Fatalf("With() = %+v, want zero", z)
	}
}

func TestAtomicRelaxedRoundTrip(t *testing.T) {
	rt := stm.New(stm.Config{Algorithm: stm.MLWT})
	th := rt.NewThread()
	v := stm.NewTWord(1)

	if err := tm.Atomic(th, tm.Options{Site: "t"}, func(tx *stm.Tx) { v.Store(tx, 2) }); err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	if err := tm.Relaxed(th, tm.With(tm.StartSerial()), func(tx *stm.Tx) { v.Store(tx, v.Load(tx)+1) }); err != nil {
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
	if err := tm.Atomic(th, tm.With(tm.ReadOnly()), func(tx *stm.Tx) { got = v.Load(tx) }); err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	if got != 9 {
		t.Fatalf("Load = %d", got)
	}
	if rt.Stats().ROFastCommits != 1 {
		t.Fatalf("ROFastCommits = %d, want 1", rt.Stats().ROFastCommits)
	}
}

func TestMaxRetriesOptionPropagates(t *testing.T) {
	rt := stm.New(stm.Config{Algorithm: stm.MLWT})
	th := rt.NewThread()
	tries := 0
	err := tm.Atomic(th, tm.With(tm.MaxRetries(2)), func(tx *stm.Tx) {
		tries++
		tx.Abort()
	})
	if !errors.Is(err, stm.ErrRetryLimit) {
		t.Fatalf("err = %v, want ErrRetryLimit", err)
	}
	if tries != 2 {
		t.Fatalf("body ran %d times, want 2", tries)
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
			_ = tm.Relaxed(th, tm.With(tm.StartSerial()), func(tx *stm.Tx) { v.Store(tx, v.Load(tx)+1) })
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

// TestTrySerialBusy pins the bounded serial acquisition used by the
// cross-shard commit path: while one thread holds the serial lock, a
// TrySerial transaction on another thread returns stm.ErrSerialBusy without
// running its body; once the lock is free it runs serially and commits.
func TestTrySerialBusy(t *testing.T) {
	rt := stm.New(stm.Config{Algorithm: stm.MLWT})
	holder := rt.NewThread()
	other := rt.NewThread()
	v := stm.NewTWord(0)

	hold := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = tm.Relaxed(holder, tm.With(tm.StartSerial()), func(tx *stm.Tx) {
			close(hold)
			<-release
		})
	}()
	<-hold

	ran := false
	err := tm.Relaxed(other, tm.With(tm.StartSerial(), tm.TrySerial()), func(tx *stm.Tx) { ran = true })
	if !errors.Is(err, stm.ErrSerialBusy) {
		t.Fatalf("err = %v, want ErrSerialBusy", err)
	}
	if ran {
		t.Fatal("body ran although the serial lock was busy")
	}

	close(release)
	<-done
	if err := tm.Relaxed(other, tm.With(tm.StartSerial(), tm.TrySerial()), func(tx *stm.Tx) {
		if !tx.Serial() {
			t.Error("TrySerial transaction not serial")
		}
		ran = true
		v.Store(tx, 7)
	}); err != nil {
		t.Fatalf("uncontended TrySerial: %v", err)
	}
	if !ran || v.LoadDirect() != 7 {
		t.Fatalf("uncontended TrySerial did not commit (ran=%v v=%d)", ran, v.LoadDirect())
	}
}
