package stm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
)

func TestRetryWakesOnWrite(t *testing.T) {
	for _, alg := range []Algorithm{MLWT, LazyAlg, NOrec} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			rt := New(Config{Algorithm: alg})
			flag := NewTWord(0)
			payload := NewTWord(0)
			var got uint64
			var woke atomic.Bool
			done := make(chan struct{})
			go func() {
				defer close(done)
				th := rt.NewThread()
				mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
					if flag.Load(tx) == 0 {
						tx.Retry()
					}
					got = payload.Load(tx)
				})
				woke.Store(true)
			}()
			time.Sleep(20 * time.Millisecond)
			if woke.Load() {
				t.Fatal("consumer proceeded before the flag was set")
			}
			th := rt.NewThread()
			mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
				payload.Store(tx, 42)
				flag.Store(tx, 1)
			})
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Retry never woke")
			}
			if got != 42 {
				t.Errorf("consumer read %d, want 42 (must see the producer's whole commit)", got)
			}
			if rt.Stats().Retries == 0 {
				t.Error("Retries stat not counted")
			}
		})
	}
}

func TestRetryEmptyReadSetPanics(t *testing.T) {
	rt := New(Config{})
	th := rt.NewThread()
	defer func() {
		if recover() == nil {
			t.Error("no panic for empty-read-set Retry")
		}
	}()
	_ = th.Run(Props{Kind: Atomic}, func(tx *Tx) { tx.Retry() })
}

// TestRetryBlockingQueue implements the classic blocking pop with Retry: no
// lost wake-ups even with many producers and consumers. The stack is a
// Treiber stack of pointer cells, so under NOrec and Lazy the contended pops
// exercise the pointer cell's revalidation and commit-time conflict paths.
func TestRetryBlockingQueue(t *testing.T) {
	for _, alg := range []Algorithm{MLWT, LazyAlg, NOrec} {
		t.Run(alg.String(), func(t *testing.T) { testRetryBlockingQueue(t, alg) })
	}
}

type stackNode struct {
	v    int
	next *stackNode
}

func testRetryBlockingQueue(t *testing.T, alg Algorithm) {
	// Yielding in some read barriers and commits lets other commits land
	// between a transaction's loads and before its commit, which is when NOrec
	// revalidates. Two Lazy committers meet on the head's orec only on two Ps.
	in := fault.New(1)
	in.Set(fault.STMReadDelay, 0.2)
	in.Set(fault.STMCommitDelay, 0.2)
	rt := New(Config{Algorithm: alg, Fault: in})
	head := newTPtr[stackNode](nil)
	const producers, perP, consumers = 3, 200, 3
	total := producers * perP

	// remaining is decremented by the transaction that pops, so "nothing left
	// to wait for" is part of every blocked consumer's read set: the last pop
	// wakes them. (A counter bumped after the commit would leave a window in
	// which a consumer sees an empty stack, not yet the final count, and
	// blocks on a stack nobody will push to again.)
	remaining := NewTWord(uint64(total))
	var sum atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := rt.NewThread()
			for {
				var v int
				done := false
				mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
					left := remaining.Load(tx)
					if done = left == 0; done {
						return
					}
					h := head.Load(tx)
					if h == nil {
						tx.Retry() // blocking pop
					}
					head.Store(tx, h.next)
					remaining.Store(tx, left-1)
					v = h.v
				})
				if done {
					return
				}
				sum.Add(int64(v))
			}
		}()
	}
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := rt.NewThread()
			for i := 0; i < perP; i++ {
				v := p*perP + i
				mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
					head.Store(tx, &stackNode{v: v, next: head.Load(tx)})
				})
			}
		}()
	}

	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(30 * time.Second):
		t.Fatalf("queue drain hung: %d/%d left", remaining.LoadDirect(), total)
	}
	want := int64(total) * int64(total-1) / 2
	if sum.Load() != want {
		t.Errorf("sum = %d, want %d (every value exactly once)", sum.Load(), want)
	}
}

// TestRetryFig2Replacement re-expresses the paper's Figure 2 maintenance
// pattern with Retry instead of the cond->semaphore transformation: the
// maintainer sleeps on exactly the predicate "work pending or shutdown".
func TestRetryFig2Replacement(t *testing.T) {
	rt := New(Config{})
	workPending := NewTWord(0)
	canRun := NewTWord(1)
	var served atomic.Int64
	done := make(chan struct{})
	go func() { // the maintainer
		defer close(done)
		th := rt.NewThread()
		for {
			shutdown := false
			mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
				shutdown = false
				if canRun.Load(tx) == 0 {
					shutdown = true
					return
				}
				if workPending.Load(tx) == 0 {
					tx.Retry() // no condvar, no semaphore, no mx_running flag
				}
				workPending.Store(tx, workPending.Load(tx)-1)
			})
			if shutdown {
				return
			}
			served.Add(1)
		}
	}()

	th := rt.NewThread()
	for i := 0; i < 25; i++ { // workers signal by writing the predicate
		mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
			workPending.Store(tx, workPending.Load(tx)+1)
		})
	}
	deadline := time.After(10 * time.Second)
	for served.Load() < 25 {
		select {
		case <-deadline:
			t.Fatalf("maintainer served %d/25", served.Load())
		default:
			time.Sleep(time.Millisecond)
		}
	}
	mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) { canRun.Store(tx, 0) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("maintainer did not shut down")
	}
}

// TestOnAbortAsBackoff pins the paper's §5 remark that onAbort handlers'
// "only role we envisioned ... was to employ backoff after a failed
// transaction": a user-level contention manager built from OnAbort.
func TestOnAbortAsBackoff(t *testing.T) {
	rt := New(Config{Algorithm: MLWT, CM: CMNone})
	hot := NewTWord(0)
	backoffs := 0
	th := rt.NewThread()
	attempts := 0
	mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
		attempts++
		tx.OnAbort(func() {
			backoffs++ // a real handler would sleep here
		})
		if attempts < 4 {
			tx.Abort()
		}
		hot.Store(tx, 1)
	})
	if backoffs != 3 {
		t.Errorf("onAbort ran %d times, want 3", backoffs)
	}
}

// TestRetryWokenBySerialCommit: a serial-irrevocable transaction stores in
// place and bumps no orec, so a parked Retry must also watch the serial
// lock — otherwise a maintainer waiting on "work exists" sleeps through every
// update made by a branch whose stores still serialize (it-max).
func TestRetryWokenBySerialCommit(t *testing.T) {
	for _, alg := range []Algorithm{MLWT, LazyAlg, NOrec} {
		t.Run(alg.String(), func(t *testing.T) {
			rt := New(Config{Algorithm: alg})
			flag := NewTWord(0)
			parked := rt.Stats().Retries
			woke := make(chan struct{})
			go func() {
				defer close(woke)
				mustRun(t, rt.NewThread(), Props{Kind: Atomic}, func(tx *Tx) {
					if flag.Load(tx) == 0 {
						tx.Retry()
					}
				})
			}()
			for rt.Stats().Retries == parked {
				time.Sleep(100 * time.Microsecond) // until the waiter has parked
			}
			mustRun(t, rt.NewThread(), Props{Kind: Relaxed, StartSerial: true}, func(tx *Tx) {
				flag.Store(tx, 1)
			})
			select {
			case <-woke:
			case <-time.After(10 * time.Second):
				t.Fatal("Retry slept through a serial commit")
			}
		})
	}
}
