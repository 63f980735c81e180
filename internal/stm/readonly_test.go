package stm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// roAlgorithms are the orec-based algorithms with a read-only fast path.
var roAlgorithms = []Algorithm{MLWT, LazyAlg}

// TestReadOnlyFastCommit proves the fast path's contract on the algorithms
// that have one: every read-only commit validates by timestamp, bumps no
// global clock (zero orec acquisitions have nothing to publish), and counts
// in ROFastCommits.
func TestReadOnlyFastCommit(t *testing.T) {
	for _, alg := range roAlgorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			rt := New(Config{Algorithm: alg})
			th := rt.NewThread()
			x, y := NewTWord(3), NewTWord(6)
			clock0 := rt.clock.Load()
			const N = 100
			for i := 0; i < N; i++ {
				var sum uint64
				mustRun(t, th, Props{Kind: Atomic, ReadOnly: true}, func(tx *Tx) {
					if !tx.ReadOnly() {
						t.Error("tx.ReadOnly() = false inside a read-only attempt")
					}
					sum = x.Load(tx) + y.Load(tx)
				})
				if sum != 9 {
					t.Fatalf("read-only sum = %d, want 9", sum)
				}
			}
			if got := rt.stats.ROFastCommits.Load(); got != N {
				t.Errorf("ROFastCommits = %d, want %d", got, N)
			}
			if got := rt.stats.Commits.Load(); got != N {
				t.Errorf("Commits = %d, want %d", got, N)
			}
			// The decisive zero-write-effects check: a read-only commit must
			// not advance the global timestamp — only orec release does that,
			// and the fast path acquires none.
			if got := rt.clock.Load(); got != clock0 {
				t.Errorf("global clock moved %d -> %d across read-only commits", clock0, got)
			}
		})
	}
}

// TestReadOnlyHintIgnoredElsewhere: algorithms without orecs (or without
// speculation at all) run a ReadOnly transaction on their normal path.
func TestReadOnlyHintIgnoredElsewhere(t *testing.T) {
	for _, alg := range []Algorithm{NOrec, SerialAlg} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			rt := New(Config{Algorithm: alg})
			th := rt.NewThread()
			v := NewTWord(7)
			var got uint64
			mustRun(t, th, Props{Kind: Relaxed, ReadOnly: true}, func(tx *Tx) {
				got = v.Load(tx)
			})
			if got != 7 {
				t.Fatalf("Load = %d, want 7", got)
			}
			if n := rt.stats.ROFastCommits.Load(); n != 0 {
				t.Errorf("ROFastCommits = %d on %v, want 0 (no fast path)", n, alg)
			}
		})
	}
}

// TestReadOnlyUpgrade: the first write barrier in a read-only attempt
// restarts it on the writer-capable path — cleanly, not as a contention
// abort — and the transaction still commits with its effects intact.
func TestReadOnlyUpgrade(t *testing.T) {
	for _, alg := range roAlgorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			rt := New(Config{Algorithm: alg})
			th := rt.NewThread()
			x, y := NewTWord(1), NewTWord(0)
			mustRun(t, th, Props{Kind: Atomic, ReadOnly: true}, func(tx *Tx) {
				y.Store(tx, x.Load(tx)+41) // "read-only" turns out to write
			})
			if got := y.LoadDirect(); got != 42 {
				t.Fatalf("after upgrade commit y = %d, want 42", got)
			}
			if got := rt.stats.ROUpgrades.Load(); got != 1 {
				t.Errorf("ROUpgrades = %d, want 1", got)
			}
			if got := rt.stats.Aborts.Load(); got != 0 {
				t.Errorf("Aborts = %d, want 0 (upgrade is not a contention abort)", got)
			}
			if got := rt.stats.ROFastCommits.Load(); got != 0 {
				t.Errorf("ROFastCommits = %d, want 0 (the commit wrote)", got)
			}
		})
	}
}

// TestReadOnlySnapshotUnderWriters is the race test for the fast path: with
// writers continuously moving value between two words (sum invariant 100),
// read-only transactions must never observe a torn sum. Against speculative
// writers, timestamp revalidation has to catch every mid-flight writer. In
// the "-serial" cases the writer is a continuous stream of start-serial
// transactions, whose in-place stores move no orec and no clock, so only the
// serial-lock subscription (trySubscribe, stillSubscribed) stands between a
// reader and a torn sum. Each reader transaction yields between its two
// loads on its first attempt, and the reader goes on until the writers have
// committed 2000 transactions, so the two overlap on one P too. make stress
// repeats it at one and two Ps.
func TestReadOnlySnapshotUnderWriters(t *testing.T) {
	for _, alg := range roAlgorithms {
		for _, serial := range []bool{false, true} {
			name, writers, props := alg.String(), 2, Props{Kind: Atomic}
			if serial {
				name, writers, props = name+"-serial", 1, Props{Kind: Relaxed, StartSerial: true}
			}
			t.Run(name, func(t *testing.T) {
				testReadOnlySnapshot(t, alg, writers, props)
			})
		}
	}
}

func testReadOnlySnapshot(t *testing.T, alg Algorithm, writers int, props Props) {
	rt := New(Config{Algorithm: alg})
	x, y := NewTWord(100), NewTWord(0)
	stop := make(chan struct{})
	var moves atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := rt.NewThread()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mustRun(t, th, props, func(tx *Tx) {
					v := x.Load(tx)
					d := v / 2
					x.Store(tx, v-d)
					y.Store(tx, y.Load(tx)+d)
				})
				mustRun(t, th, props, func(tx *Tx) {
					v := y.Load(tx)
					y.Store(tx, 0)
					x.Store(tx, x.Load(tx)+v)
				})
				moves.Add(2)
				runtime.Gosched() // on one P the writers must not starve the reader
			}
		}()
	}
	th := rt.NewThread()
	for i := 0; i < 3000 || moves.Load() < 2000; i++ {
		var sum uint64
		attempt := 0
		mustRun(t, th, Props{Kind: Atomic, ReadOnly: true}, func(tx *Tx) {
			attempt++
			sum = x.Load(tx)
			if attempt == 1 {
				runtime.Gosched() // let a writer commit between the two loads
			}
			sum += y.Load(tx)
		})
		if sum != 100 {
			t.Errorf("read-only snapshot saw x+y = %d, want 100", sum)
			break
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if rt.stats.ROFastCommits.Load() == 0 {
		t.Error("no read-only fast commits recorded under contention")
	}
}
