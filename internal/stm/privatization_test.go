package stm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPrivatizationSafety pins the guarantee §3.1/Figure 1a of the paper
// depends on ("the default TM algorithm in GCC is privatization safe, and
// this level of safety is a requirement of the Draft C++ TM Specification"):
//
// One thread privatizes a buffer by acquiring a transactional lock flag in a
// mini-transaction, then reads the buffer NONtransactionally. Another thread
// runs large transactions that check the flag and, if free, write the buffer
// in place (eager MLWT). Without commit-time quiescence the reader can
// observe the doomed writer's speculative stores or its rollback; with it,
// the privatized reads are always consistent.
func TestPrivatizationSafety(t *testing.T) {
	for _, alg := range []Algorithm{MLWT, LazyAlg, NOrec} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			rt := New(Config{Algorithm: alg})
			const n = 32
			flag := NewTWord(0)
			buf := make([]*TWord, n)
			for i := range buf {
				buf[i] = NewTWord(0)
			}

			var wg sync.WaitGroup
			stop := make(chan struct{})

			// Writer: big transactions that fill the buffer with a single
			// round number, but only while the flag is free (Figure 1b's
			// func1: inspect the lock, then use the data, in one tx).
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := rt.NewThread()
				round := uint64(1)
				for {
					select {
					case <-stop:
						return
					default:
					}
					_ = th.Run(Props{Kind: Atomic}, func(tx *Tx) {
						if flag.Load(tx) != 0 {
							return // privatized: hands off
						}
						for _, w := range buf {
							w.Store(tx, round)
						}
					})
					round++
				}
			}()

			// Privatizer: trylock via mini-transaction, then read the buffer
			// directly (nontransactionally), then unlock via mini-transaction.
			th := rt.NewThread()
			for iter := 0; iter < 2000; iter++ {
				locked := false
				_ = th.Run(Props{Kind: Atomic}, func(tx *Tx) {
					locked = false
					if flag.Load(tx) == 0 {
						flag.Store(tx, 1)
						locked = true
					}
				})
				if !locked {
					continue
				}
				first := buf[0].LoadDirect()
				for i, w := range buf {
					if got := w.LoadDirect(); got != first {
						t.Fatalf("iter %d: privatized read torn: buf[%d]=%d, buf[0]=%d",
							iter, i, got, first)
					}
				}
				_ = th.Run(Props{Kind: Atomic}, func(tx *Tx) { flag.Store(tx, 0) })
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestPrivatizationSafetySerialCommit pins the same guarantee for a serial
// writer. Taking the serial lock drains read-lock holders, but attempts that
// subscribed to it instead — the read-only fast path, emulated hardware
// transactions — hold nothing: the acquisition only dooms them. The writer's
// Run must not return while one that began before it is still executing, or
// the writer's thread would treat as private (and overwrite in place) memory
// the doomed reader is still copying out of.
func TestPrivatizationSafetySerialCommit(t *testing.T) {
	for _, c := range []struct {
		name  string
		alg   Algorithm
		props Props
	}{
		{"read-only fast path", MLWT, Props{Kind: Atomic, ReadOnly: true}},
		{"htm reader", HTM, Props{Kind: Atomic}},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			rt := New(Config{Algorithm: c.alg, HTMRetries: 100})
			w := NewTWord(0)
			var inBody atomic.Bool
			began := make(chan struct{})
			serialRan := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				attempts := 0
				mustRun(t, rt.NewThread(), c.props, func(tx *Tx) {
					attempts++
					if attempts > 1 {
						_ = w.Load(tx)
						return
					}
					// The deferred clear runs while the abort unwinds the body,
					// before the attempt retires.
					inBody.Store(true)
					defer inBody.Store(false)
					_ = w.Load(tx)
					close(began)
					<-serialRan
					time.Sleep(2 * time.Millisecond) // doomed, and still running
					_ = w.Load(tx)
				})
			}()
			<-began
			mustRun(t, rt.NewThread(), Props{Kind: Relaxed, StartSerial: true}, func(tx *Tx) {
				w.Store(tx, 1)
				close(serialRan)
			})
			if inBody.Load() {
				t.Error("the serial writer's Run returned while an attempt that subscribed before it was still running")
			}
			wg.Wait()
		})
	}
}
