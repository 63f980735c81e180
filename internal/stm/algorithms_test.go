package stm

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

// TestReadOwnWritesAcrossAlgorithms: buffered algorithms must satisfy reads
// from the redo log.
func TestReadOwnWritesAcrossAlgorithms(t *testing.T) {
	forEachAlg(t, func(t *testing.T, rt *Runtime) {
		th := rt.NewThread()
		w := NewTWord(1)
		one, two := "one", "two"
		a := newTPtr(&one)
		mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
			w.Store(tx, 2)
			a.Store(tx, &two)
			if w.Load(tx) != 2 {
				t.Error("word read-own-write failed")
			}
			if a.Load(tx) != &two {
				t.Error("pointer read-own-write failed")
			}
			w.Store(tx, 3)
			if w.Load(tx) != 3 {
				t.Error("second word overwrite not visible")
			}
		})
		if w.LoadDirect() != 3 || a.LoadDirect() != &two {
			t.Error("commit lost buffered writes")
		}
	})
}

// TestWriteSkewPrevented: two transactions each read both cells and write one;
// serializability forbids both committing on the same snapshot. We force
// overlap with a rendezvous.
func TestWriteSkewPrevented(t *testing.T) {
	for _, alg := range []Algorithm{MLWT, LazyAlg, NOrec} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			for iter := 0; iter < 200; iter++ {
				rt := New(Config{Algorithm: alg, CM: CMNone})
				x, y := NewTWord(0), NewTWord(0)
				var ready, done sync.WaitGroup
				ready.Add(2)
				done.Add(2)
				barrier := make(chan struct{})
				body := func(read, write *TWord) {
					defer done.Done()
					th := rt.NewThread()
					first := true
					_ = th.Run(Props{Kind: Atomic}, func(tx *Tx) {
						if read.Load(tx) == 0 {
							if first {
								first = false
								ready.Done()
								<-barrier // both transactions have read
							}
							write.Store(tx, 1)
						}
					})
				}
				go body(x, y)
				go body(y, x)
				ready.Wait()
				close(barrier)
				done.Wait()
				if x.LoadDirect() == 1 && y.LoadDirect() == 1 {
					t.Fatalf("iter %d: write skew admitted (x=y=1)", iter)
				}
			}
		})
	}
}

// TestTimestampExtension: a reader that sees a newer version mid-transaction
// extends its snapshot instead of aborting when the read set is still valid.
//
// The writer runs in its own goroutine and is NOT awaited inside the reader's
// body: a writer's commit quiesces (privatization safety) until concurrent
// transactions finish, so a reader that blocked on the writer's return would
// deadlock by design.
func TestTimestampExtension(t *testing.T) {
	rt := New(Config{Algorithm: MLWT})
	a, b := NewTWord(1), NewTWord(10)

	done := make(chan struct{})
	th := rt.NewThread()
	attempts := 0
	var got uint64
	mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
		attempts++
		_ = a.Load(tx)
		if attempts == 1 {
			go func() {
				defer close(done)
				wth := rt.NewThread()
				_ = wth.Run(Props{Kind: Atomic}, func(wtx *Tx) {
					b.Store(wtx, 20)
				})
			}()
			// Wait for the writer's in-place store to land, plus a grace
			// period for its version publication (it cannot finish its Run —
			// it is quiescing on us — but publication precedes quiescence).
			for b.LoadDirect() != 20 {
				runtime.Gosched()
			}
			for i := 0; i < 200; i++ {
				runtime.Gosched()
			}
		}
		got = b.Load(tx)
	})
	<-done
	if got != 20 {
		t.Errorf("final read = %d, want 20", got)
	}
	// Attempt 1 may abort only if the load raced the writer's still-locked
	// orec; the extension machinery makes a second abort impossible.
	if attempts > 2 {
		t.Errorf("reader ran %d times; timestamp extension should bound retries", attempts)
	}
}

// TestSerialLockExcludesWriters: while a serial (relaxed, irrevocable)
// transaction runs, speculative transactions must not commit.
func TestSerialLockExcludesSpeculation(t *testing.T) {
	rt := New(Config{Algorithm: MLWT})
	w := NewTWord(0)
	inSerial := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := rt.NewThread()
		_ = th.Run(Props{Kind: Relaxed, StartSerial: true}, func(tx *Tx) {
			w.Store(tx, 1)
			close(inSerial)
			<-release
			w.Store(tx, 2)
		})
	}()
	<-inSerial
	committed := make(chan struct{})
	go func() {
		th := rt.NewThread()
		_ = th.Run(Props{Kind: Atomic}, func(tx *Tx) {
			w.Store(tx, w.Load(tx)+10)
		})
		close(committed)
	}()
	select {
	case <-committed:
		t.Fatal("speculative transaction committed while a serial transaction held the lock")
	default:
	}
	close(release)
	<-committed
	wg.Wait()
	if got := w.LoadDirect(); got != 12 {
		t.Errorf("final = %d, want 12 (serial writes then +10)", got)
	}
}

// TestOrecFalseConflicts: many variables hashing to few orecs must still
// behave correctly (a tiny orec table maximizes collisions).
func TestOrecFalseConflicts(t *testing.T) {
	rt := New(Config{Algorithm: MLWT, OrecBits: 2}) // 4 orecs
	words := make([]*TWord, 64)
	for i := range words {
		words[i] = NewTWord(0)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := rt.NewThread()
			for i := 0; i < 500; i++ {
				idx := (g*16 + i) % 64
				mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
					words[idx].Store(tx, words[idx].Load(tx)+1)
				})
			}
		}()
	}
	wg.Wait()
	var sum uint64
	for _, w := range words {
		sum += w.LoadDirect()
	}
	if sum != 4*500 {
		t.Errorf("sum = %d, want 2000", sum)
	}
}

// TestQuickTransactionalSemantics is a property test: any sequence of
// read/write/add steps applied transactionally to TWords matches a plain
// model executed sequentially.
func TestQuickTransactionalSemantics(t *testing.T) {
	type step struct {
		Var   uint8
		Op    uint8 // 0 = add, 1 = store, 2 = load (no-op for state)
		Value uint8
	}
	rt := New(Config{})
	th := rt.NewThread()
	f := func(steps []step) bool {
		const nv = 4
		words := make([]*TWord, nv)
		model := make([]uint64, nv)
		for i := range words {
			words[i] = NewTWord(0)
		}
		err := th.Run(Props{Kind: Atomic}, func(tx *Tx) {
			for _, s := range steps {
				v := int(s.Var) % nv
				switch s.Op % 3 {
				case 0:
					words[v].Add(tx, uint64(s.Value))
				case 1:
					words[v].Store(tx, uint64(s.Value))
				case 2:
					_ = words[v].Load(tx)
				}
			}
		})
		if err != nil {
			return false
		}
		for _, s := range steps {
			v := int(s.Var) % nv
			switch s.Op % 3 {
			case 0:
				model[v] += uint64(s.Value)
			case 1:
				model[v] = uint64(s.Value)
			}
		}
		for i := range model {
			if words[i].LoadDirect() != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestLazyCommitConflict: two lazy transactions writing the same location
// under forced overlap must serialize correctly (one aborts or they order).
func TestLazyCommitTimeConflict(t *testing.T) {
	rt := New(Config{Algorithm: LazyAlg, CM: CMNone})
	w := NewTWord(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := rt.NewThread()
			for i := 0; i < 1000; i++ {
				mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
					w.Store(tx, w.Load(tx)+1)
				})
			}
		}()
	}
	wg.Wait()
	if got := w.LoadDirect(); got != 4000 {
		t.Errorf("counter = %d, want 4000", got)
	}
}

// TestQuiesceNoDeadlock: many writers committing concurrently (each quiescing
// on the others) must make progress.
func TestQuiesceNoDeadlock(t *testing.T) {
	rt := New(Config{Algorithm: MLWT, CM: CMNone})
	words := make([]*TWord, 16)
	for i := range words {
		words[i] = NewTWord(0)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := rt.NewThread()
			for i := 0; i < 2000; i++ {
				w := words[(g+i)%16]
				mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
					w.Store(tx, w.Load(tx)+1)
				})
			}
		}()
	}
	wg.Wait()
	var sum uint64
	for _, w := range words {
		sum += w.LoadDirect()
	}
	if sum != 8*2000 {
		t.Errorf("sum = %d", sum)
	}
}
