package stm

import (
	"bytes"
	"errors"
	"flag"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/fault"
	"repro/internal/txobs"
)

var algorithms = []Algorithm{MLWT, LazyAlg, NOrec, SerialAlg}

// newTPtr makes a pointer cell holding v, as an embedding structure's Init
// would.
func newTPtr[T any](v *T) *TPtr[T] {
	t := &TPtr[T]{}
	t.Init(nextID(), txobs.NoLabel, v)
	return t
}

func forEachAlg(t *testing.T, fn func(t *testing.T, rt *Runtime)) {
	t.Helper()
	for _, alg := range algorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			fn(t, New(Config{Algorithm: alg}))
		})
	}
}

func mustRun(t *testing.T, th *Thread, props Props, fn func(*Tx)) {
	t.Helper()
	if err := th.Run(props, fn); err != nil {
		// Errorf, not Fatalf: mustRun is called from worker goroutines.
		t.Errorf("Run: %v", err)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	forEachAlg(t, func(t *testing.T, rt *Runtime) {
		th := rt.NewThread()
		v := NewTWord(7)
		mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
			if got := v.Load(tx); got != 7 {
				t.Errorf("initial Load = %d, want 7", got)
			}
			v.Store(tx, 42)
			if got := v.Load(tx); got != 42 {
				t.Errorf("read-own-write = %d, want 42", got)
			}
		})
		if got := v.LoadDirect(); got != 42 {
			t.Errorf("after commit = %d, want 42", got)
		}
	})
}

func TestTPtrRoundTrip(t *testing.T) {
	forEachAlg(t, func(t *testing.T, rt *Runtime) {
		th := rt.NewThread()
		hello, bye := "hello", "bye"
		v := newTPtr(&hello)
		mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
			if got := v.Load(tx); got != &hello {
				t.Errorf("Load = %v", got)
			}
			v.Store(tx, &bye)
			if got := v.Load(tx); got != &bye {
				t.Errorf("read-own-write = %v", got)
			}
		})
		if got := v.LoadDirect(); got != &bye {
			t.Errorf("after commit = %v", got)
		}
		mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) { v.Store(tx, nil) })
		if v.LoadDirect() != nil {
			t.Error("nil store lost")
		}
	})
}

func TestCancelRollsBack(t *testing.T) {
	forEachAlg(t, func(t *testing.T, rt *Runtime) {
		th := rt.NewThread()
		v := NewTWord(1)
		err := th.Run(Props{Kind: Atomic}, func(tx *Tx) {
			v.Store(tx, 2)
			tx.Cancel()
		})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		if got := v.LoadDirect(); got != 1 {
			t.Errorf("after cancel = %d, want 1 (rolled back)", got)
		}
	})
}

func TestCancelInRelaxedPanics(t *testing.T) {
	rt := New(Config{})
	th := rt.NewThread()
	defer func() {
		if r := recover(); !errors.Is(r.(error), ErrCancelRelaxed) {
			t.Fatalf("panic = %v, want ErrCancelRelaxed", r)
		}
	}()
	_ = th.Run(Props{Kind: Relaxed}, func(tx *Tx) { tx.Cancel() })
	t.Fatal("no panic")
}

func TestUserPanicRollsBackAndPropagates(t *testing.T) {
	forEachAlg(t, func(t *testing.T, rt *Runtime) {
		th := rt.NewThread()
		v := NewTWord(1)
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("panic = %v, want boom", r)
				}
			}()
			_ = th.Run(Props{Kind: Atomic}, func(tx *Tx) {
				v.Store(tx, 2)
				panic("boom")
			})
		}()
		if got := v.LoadDirect(); got != 1 {
			t.Errorf("after panic = %d, want 1 (rolled back)", got)
		}
		// The runtime must be reusable afterwards.
		mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) { v.Store(tx, 3) })
		if got := v.LoadDirect(); got != 3 {
			t.Errorf("after recovery tx = %d, want 3", got)
		}
	})
}

func TestUnsafeInAtomicPanics(t *testing.T) {
	rt := New(Config{})
	th := rt.NewThread()
	v := NewTWord(1)
	defer func() {
		r := recover()
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrUnsafeInAtomic) {
			t.Fatalf("panic = %v, want ErrUnsafeInAtomic", r)
		}
		if got := v.LoadDirect(); got != 1 {
			t.Errorf("value = %d, want 1 (rolled back)", got)
		}
	}()
	_ = th.Run(Props{Kind: Atomic}, func(tx *Tx) {
		v.Store(tx, 2)
		tx.Unsafe("fprintf")
	})
	t.Fatal("no panic")
}

func TestUnsafeInRelaxedSwitchesSerial(t *testing.T) {
	rt := New(Config{})
	th := rt.NewThread()
	v := NewTWord(0)
	runs := 0
	mustRun(t, th, Props{Kind: Relaxed}, func(tx *Tx) {
		runs++
		v.Store(tx, v.Load(tx)+1)
		tx.Unsafe("fprintf")
		if !tx.Serial() {
			t.Error("not serial after Unsafe")
		}
	})
	if runs != 2 {
		t.Errorf("body ran %d times, want 2 (speculative + serial restart)", runs)
	}
	if got := v.LoadDirect(); got != 1 {
		t.Errorf("value = %d, want 1 (speculative attempt rolled back)", got)
	}
	s := rt.Stats()
	if s.InFlightSwitch != 1 {
		t.Errorf("InFlightSwitch = %d, want 1", s.InFlightSwitch)
	}
	if s.SerialCommits != 1 {
		t.Errorf("SerialCommits = %d, want 1", s.SerialCommits)
	}
}

func TestStartSerial(t *testing.T) {
	rt := New(Config{})
	th := rt.NewThread()
	v := NewTWord(0)
	mustRun(t, th, Props{Kind: Relaxed, StartSerial: true}, func(tx *Tx) {
		if !tx.Serial() {
			t.Error("not serial at start")
		}
		tx.Unsafe("write") // no-op when already serial
		v.Store(tx, 5)
	})
	s := rt.Stats()
	if s.StartSerial != 1 {
		t.Errorf("StartSerial = %d, want 1", s.StartSerial)
	}
	if s.InFlightSwitch != 0 {
		t.Errorf("InFlightSwitch = %d, want 0", s.InFlightSwitch)
	}
	if v.LoadDirect() != 5 {
		t.Error("store lost")
	}
}

func TestOnCommitRunsOnceAfterCommit(t *testing.T) {
	forEachAlg(t, func(t *testing.T, rt *Runtime) {
		th := rt.NewThread()
		v := NewTWord(0)
		calls := 0
		sawValue := uint64(0)
		mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
			v.Store(tx, 9)
			tx.OnCommit(func() {
				calls++
				sawValue = v.LoadDirect() // locks already released
				if th.InTx() {
					t.Error("onCommit handler ran inside a transaction")
				}
			})
		})
		if calls != 1 {
			t.Errorf("onCommit ran %d times, want 1", calls)
		}
		if sawValue != 9 {
			t.Errorf("onCommit saw %d, want 9", sawValue)
		}
	})
}

func TestOnCommitNotRunOnCancel(t *testing.T) {
	rt := New(Config{})
	th := rt.NewThread()
	calls := 0
	_ = th.Run(Props{Kind: Atomic}, func(tx *Tx) {
		tx.OnCommit(func() { calls++ })
		tx.Cancel()
	})
	if calls != 0 {
		t.Errorf("onCommit ran %d times after cancel, want 0", calls)
	}
}

func TestOnAbortRunsPerAbort(t *testing.T) {
	rt := New(Config{SerializeAfter: 3})
	th := rt.NewThread()
	aborts := 0
	attempts := 0
	mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
		attempts++
		tx.OnAbort(func() { aborts++ })
		if !tx.Serial() {
			tx.Abort()
		}
	})
	// 3 speculative attempts abort, then the CM serializes the 4th.
	if attempts != 4 {
		t.Errorf("attempts = %d, want 4", attempts)
	}
	if aborts != 3 {
		t.Errorf("onAbort ran %d times, want 3", aborts)
	}
	if got := rt.Stats().AbortSerial; got != 1 {
		t.Errorf("AbortSerial = %d, want 1", got)
	}
}

// TestSerializeAfterBudget checks the static retry budget: under CMSerialize
// an attempt escalates to serial after exactly Config.SerializeAfter
// consecutive aborts, and a transaction that aborts fewer times commits
// speculatively.
func TestSerializeAfterBudget(t *testing.T) {
	for _, budget := range []int{1, 3, 8} {
		for _, want := range []int{budget - 1, budget, budget + 2} {
			rt := New(Config{Algorithm: MLWT, CM: CMSerialize, SerializeAfter: budget})
			th := rt.NewThread()
			v := NewTWord(0)
			aborts, serial := 0, false
			mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
				v.Store(tx, v.Load(tx)+1)
				serial = tx.Serial()
				if aborts < want && !serial {
					aborts++
					tx.Abort()
				}
			})
			wantSerial := want >= budget
			if serial != wantSerial {
				t.Errorf("budget %d, %d requested aborts: committed serial = %v, want %v", budget, want, serial, wantSerial)
			}
			if wantSerial && aborts != budget {
				t.Errorf("budget %d: escalated after %d aborts, want %d", budget, aborts, budget)
			}
			var wantAS uint64
			if wantSerial {
				wantAS = 1
			}
			if got := rt.Stats().AbortSerial; got != wantAS {
				t.Errorf("budget %d, %d requested aborts: AbortSerial = %d, want %d", budget, want, got, wantAS)
			}
			if got := v.LoadDirect(); got != 1 {
				t.Errorf("budget %d: v = %d, want 1", budget, got)
			}
		}
	}
}

// TestBackoffDeterminism: with the jitter state seeded from an internal/fault
// injector seed, the backoff delay sequence is a pure function of (seed,
// thread ordinal, consec) — identical across runtimes with the same seed,
// different across seeds — and follows the fixed exponential curve.
func TestBackoffDeterminism(t *testing.T) {
	seq := func(seed uint64, ordinal uint64, n int) []time.Duration {
		in := fault.New(seed)
		rt := New(Config{Algorithm: MLWT, CM: CMBackoff, Fault: in})
		var th *Thread
		for i := uint64(0); i <= ordinal; i++ {
			th = rt.NewThread()
		}
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = backoffDelay(&th.rngState, i+1)
		}
		return out
	}

	a := seq(0xDECAFBAD, 1, 32)
	b := seq(0xDECAFBAD, 1, 32)
	c := seq(0x5EED5EED, 1, 32)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay[%d]: %v != %v for identical seeds", i, a[i], b[i])
		}
	}
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("identical delay sequences for different seeds")
	}

	// The curve must be exponential with jitter inside [w/2, w] where the
	// window w doubles per consecutive abort up to the cap.
	for i, d := range a {
		w := time.Duration(backoffBaseNs << min(i+1, backoffMaxShift))
		if d < w/2 || d > w {
			t.Errorf("delay[%d] = %v outside window [%v, %v]", i, d, w/2, w)
		}
	}
}

func TestFlatNesting(t *testing.T) {
	forEachAlg(t, func(t *testing.T, rt *Runtime) {
		th := rt.NewThread()
		v := NewTWord(0)
		mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
			v.Store(tx, 1)
			// Nested Run flattens into the same transaction.
			mustRun(t, th, Props{Kind: Atomic}, func(inner *Tx) {
				if inner != tx {
					t.Error("nested transaction got a fresh descriptor")
				}
				v.Store(inner, v.Load(inner)+1)
			})
		})
		if got := v.LoadDirect(); got != 2 {
			t.Errorf("value = %d, want 2", got)
		}
	})
}

// TestConcurrentCounter checks atomicity of read-modify-write under real
// contention for every algorithm.
func TestConcurrentCounter(t *testing.T) {
	forEachAlg(t, func(t *testing.T, rt *Runtime) {
		const goroutines = 8
		const perG = 2000
		ctr := NewTWord(0)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := rt.NewThread()
				for i := 0; i < perG; i++ {
					mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
						ctr.Store(tx, ctr.Load(tx)+1)
					})
				}
			}()
		}
		wg.Wait()
		if got := ctr.LoadDirect(); got != goroutines*perG {
			t.Errorf("counter = %d, want %d", got, goroutines*perG)
		}
	})
}

// TestBankInvariant transfers money among accounts from many goroutines and
// checks that every transactional snapshot and the final state conserve the
// total: the classic opacity/atomicity smoke test.
func TestBankInvariant(t *testing.T) {
	forEachAlg(t, func(t *testing.T, rt *Runtime) {
		const nAcct = 16
		const total = nAcct * 100
		accts := make([]*TWord, nAcct)
		for i := range accts {
			accts[i] = NewTWord(100)
		}
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := rt.NewThread()
				for i := 0; i < 1500; i++ {
					from := (g*7 + i) % nAcct
					to := (g*13 + i*5 + 1) % nAcct
					if from == to {
						continue
					}
					mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
						f := accts[from].Load(tx)
						if f == 0 {
							return
						}
						accts[from].Store(tx, f-1)
						accts[to].Store(tx, accts[to].Load(tx)+1)
					})
					if i%64 == 0 {
						// Observer transaction: the snapshot must conserve total.
						var sum uint64
						mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
							sum = 0
							for _, a := range accts {
								sum += a.Load(tx)
							}
						})
						if sum != total {
							t.Errorf("snapshot sum = %d, want %d", sum, total)
						}
					}
				}
			}()
		}
		wg.Wait()
		var sum uint64
		for _, a := range accts {
			sum += a.LoadDirect()
		}
		if sum != total {
			t.Errorf("final sum = %d, want %d", sum, total)
		}
	})
}

func TestNoSerialLockStillAtomic(t *testing.T) {
	rt := New(Config{Algorithm: MLWT, CM: CMNone, NoSerialLock: true})
	ctr := NewTWord(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := rt.NewThread()
			for i := 0; i < 2000; i++ {
				mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
					ctr.Store(tx, ctr.Load(tx)+1)
				})
			}
		}()
	}
	wg.Wait()
	if got := ctr.LoadDirect(); got != 16000 {
		t.Errorf("counter = %d, want 16000", got)
	}
}

func TestContentionManagersProgress(t *testing.T) {
	for _, cm := range []ContentionManager{CMSerialize, CMNone, CMBackoff, CMHourglass} {
		cm := cm
		t.Run(cm.String(), func(t *testing.T) {
			rt := New(Config{Algorithm: MLWT, CM: cm, HourglassAfter: 4, SerializeAfter: 8})
			ctr := NewTWord(0)
			var wg sync.WaitGroup
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := rt.NewThread()
					for i := 0; i < 1000; i++ {
						mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
							ctr.Store(tx, ctr.Load(tx)+1)
						})
					}
				}()
			}
			wg.Wait()
			if got := ctr.LoadDirect(); got != 6000 {
				t.Errorf("counter = %d, want 6000", got)
			}
		})
	}
}

func TestRelaxedSerialAndSpeculativeCoexist(t *testing.T) {
	// Relaxed transactions that go irrevocable must exclude speculative ones
	// via the global readers/writer lock.
	rt := New(Config{Algorithm: MLWT})
	ctr := NewTWord(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := rt.NewThread()
			for i := 0; i < 1000; i++ {
				if g == 0 && i%10 == 0 {
					mustRun(t, th, Props{Kind: Relaxed}, func(tx *Tx) {
						v := ctr.Load(tx)
						tx.Unsafe("logging")
						ctr.Store(tx, v+1)
					})
				} else {
					mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
						ctr.Store(tx, ctr.Load(tx)+1)
					})
				}
			}
		}()
	}
	wg.Wait()
	if got := ctr.LoadDirect(); got != 4000 {
		t.Errorf("counter = %d, want 4000", got)
	}
	if rt.Stats().InFlightSwitch == 0 {
		t.Error("expected in-flight switches")
	}
}

func TestTBytesRoundTrip(t *testing.T) {
	forEachAlg(t, func(t *testing.T, rt *Runtime) {
		th := rt.NewThread()
		src := []byte("the quick brown fox jumps over the lazy dog")
		tb := NewTBytesFrom(src)
		if !bytes.Equal(tb.Bytes(), src) {
			t.Fatalf("NewTBytesFrom round trip = %q", tb.Bytes())
		}
		dst := make([]byte, len(src))
		mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
			tb.ReadAt(tx, dst, 0)
		})
		if !bytes.Equal(dst, src) {
			t.Errorf("ReadAt = %q", dst)
		}
		repl := []byte("THE QUICK")
		mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
			tb.WriteAt(tx, 0, repl)
		})
		want := append([]byte("THE QUICK"), src[9:]...)
		if !bytes.Equal(tb.Bytes(), want) {
			t.Errorf("after WriteAt = %q, want %q", tb.Bytes(), want)
		}
	})
}

func TestTBytesByteOpsQuick(t *testing.T) {
	rt := New(Config{})
	th := rt.NewThread()
	// Property: a one-byte WriteAt then ReadAt observes the byte; the other
	// bytes, including the rest of its word and stripe, keep their values.
	f := func(data []byte, idx uint16, b byte) bool {
		if len(data) == 0 {
			return true
		}
		i := int(idx) % len(data)
		tb := NewTBytesFrom(data)
		var got byte
		mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
			tb.WriteAt(tx, i, []byte{b})
			var one [1]byte
			tb.ReadAt(tx, one[:], i)
			got = one[0]
		})
		if got != b {
			return false
		}
		out := tb.Bytes()
		for j := range data {
			want := data[j]
			if j == i {
				want = b
			}
			if out[j] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// tornBufLen spans four stripes, the last one partial.
const tornBufLen = 3*StripeBytes + 8

// tornReads runs three writers, each overwriting the whole of a multi-stripe
// buffer with one fill byte in one transaction (a new byte every time),
// beside a read-only and a read-write reader that copy it out from a word
// offset inside the first stripe (and from an unaligned byte offset), and
// returns how many committed reads saw a mix of fills. Each writer commits
// at least writes transactions and keeps writing until the readers have
// committed writes copies; with stopOnTorn the run ends at the first torn
// read instead.
func tornReads(t *testing.T, rt *Runtime, writes int, stopOnTorn bool) int64 {
	t.Helper()
	tb := NewTBytesFrom(bytes.Repeat([]byte{'z'}, tornBufLen))
	var torn, reads atomic.Int64
	done := make(chan struct{})
	var stopOnce sync.Once
	stop := func() { stopOnce.Do(func() { close(done) }) }
	var writers sync.WaitGroup
	for g := 0; g < 3; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			th := rt.NewThread()
			buf := make([]byte, tornBufLen)
			for i := 0; i < writes || reads.Load() < int64(writes); i++ {
				select {
				case <-done:
					return
				default:
				}
				for j := range buf {
					buf[j] = byte(g + 3*i) // no two consecutive commits write the same fill
				}
				mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
					tb.WriteAt(tx, 0, buf)
				})
			}
		}()
	}
	var readers sync.WaitGroup
	for _, ro := range []bool{true, false} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			th := rt.NewThread()
			dst := make([]byte, tornBufLen)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				off := 3 * 8 // word 3: inside stripe 0, not on its boundary
				if i%2 == 1 {
					off = 13
				}
				got := dst[:tornBufLen-off]
				mustRun(t, th, Props{Kind: Atomic, ReadOnly: ro}, func(tx *Tx) {
					tb.ReadAt(tx, got, off)
				})
				reads.Add(1)
				if bytes.Count(got, got[:1]) != len(got) {
					if torn.Add(1) == 1 {
						t.Logf("torn read (read-only %v) from offset %d: %q", ro, off, got)
					}
					if stopOnTorn {
						stop()
					}
				}
			}
		}()
	}
	writers.Wait()
	stop()
	readers.Wait()
	return torn.Load()
}

// delayedReads returns a runtime whose read barriers yield to the scheduler
// half the time; in a stripe barrier that is between the orec's first sample
// and the copy, the window a writer must hit to tear a read.
func delayedReads(alg Algorithm, seed uint64) *Runtime {
	in := fault.New(seed)
	in.Set(fault.STMReadDelay, 0.5)
	return New(Config{Algorithm: alg, Fault: in})
}

// TestTBytesConcurrentWriters: readers of a multi-stripe buffer, read-only
// and read-write, never commit a copy that mixes two writers' fills, on every
// algorithm, with and without delays injected into the read barriers.
func TestTBytesConcurrentWriters(t *testing.T) {
	for _, alg := range algorithms {
		runs := []*Runtime{New(Config{Algorithm: alg})}
		if alg != SerialAlg { // serial readers run alone: nothing to widen
			runs = append(runs, delayedReads(alg, 1))
		}
		for _, rt := range runs {
			name := alg.String()
			if rt.cfg.Fault != nil {
				name += "/delayed"
			}
			t.Run(name, func(t *testing.T) {
				if n := tornReads(t, rt, 300, false); n != 0 {
					t.Errorf("%d torn reads", n)
				}
			})
		}
	}
}

// stmMutant runs the seeded-bug cases, which are expected to FAIL the
// torn-read check and are therefore skipped by default:
//
//	go test -run StripeResampleMutant ./internal/stm -stm.mutant
var stmMutant = flag.Bool("stm.mutant", false, "run the mutation cases (seeded bugs the stm tests must catch)")

// TestStripeResampleMutant seeds the bug the stripe barrier's second orec
// sample exists to prevent — a copy kept although a writer moved the orec
// while it ran — and requires TestTBytesConcurrentWriters' check, with
// delayed reads, to catch it in every one of several runs, on MLWT (whose
// read-write readers commit without revalidating what they read).
func TestStripeResampleMutant(t *testing.T) {
	if !*stmMutant {
		t.Skip("mutation case: run with -stm.mutant")
	}
	for run := 0; run < 5; run++ {
		rt := delayedReads(MLWT, uint64(run)+1)
		rt.skipResample = true
		if tornReads(t, rt, 1_000_000, true) == 0 {
			t.Errorf("run %d: copies kept across an orec change went unnoticed", run)
		}
	}
}

func TestStatsSubAndRatios(t *testing.T) {
	a := Snapshot{Commits: 10, Aborts: 20, InFlightSwitch: 1}
	b := Snapshot{Commits: 30, Aborts: 25, InFlightSwitch: 4}
	d := b.Sub(a)
	if d.Commits != 20 || d.Aborts != 5 || d.InFlightSwitch != 3 {
		t.Errorf("Sub = %+v", d)
	}
	if got := d.AbortsPerCommit(); got != 0.25 {
		t.Errorf("AbortsPerCommit = %v", got)
	}
}

func TestParseHelpers(t *testing.T) {
	for _, s := range []string{"mlwt", "gcc", "eager", "lazy", "norec", "serial"} {
		if _, err := ParseAlgorithm(s); err != nil {
			t.Errorf("ParseAlgorithm(%q): %v", s, err)
		}
	}
	for _, s := range []string{"nope", "tml", "htm", "rtm"} {
		if _, err := ParseAlgorithm(s); err == nil {
			t.Errorf("ParseAlgorithm accepted %q", s)
		}
	}
	for _, s := range []string{"serialize", "none", "backoff", "hourglass"} {
		if _, err := ParseCM(s); err != nil {
			t.Errorf("ParseCM(%q): %v", s, err)
		}
	}
	if _, err := ParseCM("nope"); err == nil {
		t.Error("ParseCM accepted garbage")
	}
}
