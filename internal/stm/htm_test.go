package stm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestHTMBasicCommit(t *testing.T) {
	rt := New(Config{Algorithm: HTM})
	th := rt.NewThread()
	w := NewTWord(1)
	mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
		w.Store(tx, w.Load(tx)+1)
	})
	if w.LoadDirect() != 2 {
		t.Errorf("w = %d", w.LoadDirect())
	}
	s := rt.Stats()
	if s.Commits != 1 || s.HTMFallbacks != 0 || s.HTMCapacityAborts != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestHTMCapacityFallback(t *testing.T) {
	rt := New(Config{Algorithm: HTM, HTMCapacity: 8, HTMRetries: 2})
	th := rt.NewThread()
	words := make([]*TWord, 32)
	for i := range words {
		words[i] = NewTWord(0)
	}
	// A transaction touching 32 locations cannot fit in an 8-location
	// hardware transaction: it must capacity-abort HTMRetries times and then
	// complete via the lock fallback.
	mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
		for _, w := range words {
			w.Store(tx, w.Load(tx)+1)
		}
	})
	for i, w := range words {
		if w.LoadDirect() != 1 {
			t.Fatalf("words[%d] = %d", i, w.LoadDirect())
		}
	}
	s := rt.Stats()
	if s.HTMCapacityAborts != 2 {
		t.Errorf("capacity aborts = %d, want 2 (HTMRetries)", s.HTMCapacityAborts)
	}
	if s.HTMFallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", s.HTMFallbacks)
	}
	if s.SerialCommits != 1 {
		t.Errorf("serial commits = %d, want 1 (the fallback)", s.SerialCommits)
	}
}

func TestHTMAbortedBySerialWriter(t *testing.T) {
	rt := New(Config{Algorithm: HTM, HTMRetries: 100})
	w := NewTWord(0)

	inTx := make(chan struct{})
	proceed := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	attempts := 0
	go func() {
		defer wg.Done()
		th := rt.NewThread()
		mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
			attempts++
			_ = w.Load(tx)
			if attempts == 1 {
				close(inTx)
				<-proceed // a serial transaction runs while we are in flight
			}
			w.Store(tx, w.Load(tx)+1)
		})
	}()
	<-inTx
	// A relaxed start-serial transaction acquires the lock: the in-flight
	// hardware transaction must abort at its next subscription check. It is
	// released from inside the serial body — the serial commit waits for
	// attempts that subscribed before it to retire, so the writer's Run cannot
	// return while the reader is still parked.
	mustRun(t, rt.NewThread(), Props{Kind: Relaxed, StartSerial: true}, func(tx *Tx) {
		w.Store(tx, 100)
		close(proceed)
	})
	wg.Wait()
	// What the test has always asserted, whoever releases the reader: an
	// attempt that subscribed before the serial writer is doomed by it.
	if attempts < 2 {
		t.Errorf("attempts = %d; the serial writer should have aborted attempt 1", attempts)
	}
	if got := w.LoadDirect(); got != 101 {
		t.Errorf("w = %d, want 101 (serial write then +1)", got)
	}
}

func TestHTMConcurrentCounter(t *testing.T) {
	rt := New(Config{Algorithm: HTM, HTMRetries: 4})
	ctr := NewTWord(0)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := rt.NewThread()
			for i := 0; i < 1500; i++ {
				mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
					ctr.Store(tx, ctr.Load(tx)+1)
				})
			}
		}()
	}
	wg.Wait()
	if got := ctr.LoadDirect(); got != 9000 {
		t.Errorf("ctr = %d, want 9000", got)
	}
}

func TestHTMForcesSerialLockOn(t *testing.T) {
	rt := New(Config{Algorithm: HTM, NoSerialLock: true})
	if rt.Config().NoSerialLock {
		t.Error("HTM must keep the serial lock (it is the fallback path)")
	}
}

// TestHTMSerializationPoisonsThroughput demonstrates the §5 claim: with
// frequent serialized transactions, hardware transactions keep aborting on
// the lock subscription and falling back, so almost everything ends up
// serial.
func TestHTMSerializationPoisonsThroughput(t *testing.T) {
	rt := New(Config{Algorithm: HTM, HTMRetries: 2})
	w := NewTWord(0)
	var hw sync.WaitGroup
	var hwCommits atomic.Uint64
	deadline := time.Now().Add(10 * time.Second)
	for g := 0; g < 3; g++ {
		hw.Add(1)
		go func() {
			defer hw.Done()
			th := rt.NewThread()
			// At least 500 each, and on until the claim has had its chance:
			// on a multicore host 500 can fit inside one scheduling hiccup of
			// the serial stream.
			for i := 0; i < 500 || (rt.stats.HTMFallbacks.Load() == 0 && time.Now().Before(deadline)); i++ {
				hwCommits.Add(1)
				mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
					v := w.Load(tx)
					// Yield mid-transaction so the serial stream overlaps
					// us (on one core, overlap requires preemption).
					runtime.Gosched()
					w.Store(tx, v+1)
				})
			}
		}()
	}
	// A stream of relaxed/serial transactions that lasts as long as the
	// hardware ones do: a fixed count can be over before they have begun.
	hwDone := make(chan struct{})
	go func() { hw.Wait(); close(hwDone) }()
	th := rt.NewThread()
	serial := uint64(0)
	for running := true; running; serial++ {
		select {
		case <-hwDone:
			running = false
		default:
		}
		mustRun(t, th, Props{Kind: Relaxed, StartSerial: true}, func(tx *Tx) {
			w.Store(tx, w.Load(tx)+1)
		})
		runtime.Gosched() // on one core the stream must not hog it
	}
	if got, want := w.LoadDirect(), hwCommits.Load()+serial; got != want {
		t.Fatalf("w = %d, want %d", got, want)
	}
	s := rt.Stats()
	if s.HTMFallbacks == 0 {
		t.Error("expected lock fallbacks under a serialized workload")
	}
	t.Logf("commits=%d serial=%d fallbacks=%d capacity-aborts=%d",
		s.Commits, s.SerialCommits, s.HTMFallbacks, s.HTMCapacityAborts)
}
