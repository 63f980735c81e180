package stm

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// TestNOrecSnapshotConsistency: a NOrec reader mid-transaction must never
// observe half of another transaction's commit, even across its value-based
// re-validations. Two words are always updated together; any read pair must
// match.
func TestNOrecSnapshotConsistency(t *testing.T) {
	rt := New(Config{Algorithm: NOrec, CM: CMNone})
	x, y := NewTWord(0), NewTWord(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := rt.NewThread()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = th.Run(Props{Kind: Atomic}, func(tx *Tx) {
				x.Store(tx, i)
				y.Store(tx, i)
			})
		}
	}()
	th := rt.NewThread()
	for i := 0; i < 5000; i++ {
		var a, b uint64
		mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
			a = x.Load(tx)
			b = y.Load(tx)
		})
		if a != b {
			t.Fatalf("iteration %d: torn snapshot x=%d y=%d", i, a, b)
		}
	}
	close(stop)
	wg.Wait()
}

// TestTBytesWriteReadQuick: WriteAll/ReadAll round-trip for arbitrary
// contents and lengths, under every algorithm.
func TestTBytesWriteReadQuick(t *testing.T) {
	for _, alg := range []Algorithm{MLWT, LazyAlg, NOrec} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			rt := New(Config{Algorithm: alg})
			th := rt.NewThread()
			f := func(content []byte, pad uint8) bool {
				tb := NewTBytes(len(content) + int(pad))
				err := th.Run(Props{Kind: Atomic}, func(tx *Tx) {
					tb.WriteAt(tx, 0, content)
				})
				if err != nil {
					return false
				}
				out := make([]byte, tb.Len())
				err = th.Run(Props{Kind: Atomic}, func(tx *Tx) {
					tb.ReadAt(tx, out, 0)
				})
				if err != nil {
					return false
				}
				return bytes.Equal(out[:len(content)], content)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestPartialWordWriteAll: a WriteAt at offset 0 of a source shorter than the
// buffer must preserve the bytes beyond the source within the same trailing
// word.
func TestPartialWordWriteAll(t *testing.T) {
	rt := New(Config{})
	th := rt.NewThread()
	tb := NewTBytesFrom([]byte("ABCDEFGHIJKLMNOP")) // 16 bytes, 2 words
	mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
		tb.WriteAt(tx, 0, []byte("xyz")) // 3 bytes into word 0
	})
	if got := string(tb.Bytes()); got != "xyzDEFGHIJKLMNOP" {
		t.Errorf("partial WriteAt = %q", got)
	}
}

// TestTPtrNilAndIdentity: TPtr must carry nil and pointer identity faithfully.
func TestTPtrNilAndIdentity(t *testing.T) {
	rt := New(Config{})
	th := rt.NewThread()
	type payload struct{ n int }
	a := newTPtr[payload](nil)
	if a.LoadDirect() != nil {
		t.Error("initial nil lost")
	}
	p, q := &payload{n: 7}, &payload{n: 7}
	mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
		if a.Load(tx) != nil {
			t.Error("nil load in tx")
		}
		a.Store(tx, p)
	})
	if got := a.LoadDirect(); got != p {
		t.Errorf("pointer identity lost: %p, want %p", got, p)
	}
	mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
		a.Store(tx, q)
	})
	if got := a.LoadDirect(); got != q {
		t.Errorf("equal-valued pointer not distinguished: %p, want %p", got, q)
	}
}

// TestSnapshotStatsFields: the snapshot carries every counter, and
// ResetStats zeroes every one. Forced aborts on MLWT under CMSerialize drive
// the abort, abort-serial and watchdog counters; one transaction of each
// other kind moves the rest.
func TestSnapshotStatsFields(t *testing.T) {
	rt := New(Config{Algorithm: MLWT, CM: CMSerialize, SerializeAfter: 4, WatchdogAborts: 1})
	th := rt.NewThread()
	w, flag := NewTWord(0), NewTWord(0)
	write := func(tx *Tx) { w.Store(tx, w.Load(tx)+1) }
	// One scan per attempt escalates to backoff, then to serial (as in
	// TestWatchdogLadder), before the fourth abort would serialize.
	mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
		rt.watchdogScan(time.Now())
		write(tx)
		if !tx.Serial() {
			tx.Abort()
		}
	})
	// Without scans the contention manager serializes after four aborts.
	mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
		write(tx)
		if !tx.Serial() {
			tx.Abort()
		}
	})
	mustRun(t, th, Props{Kind: Relaxed}, func(tx *Tx) {
		write(tx)
		tx.Unsafe("io")
	})
	mustRun(t, th, Props{Kind: Relaxed, StartSerial: true}, write)
	mustRun(t, th, Props{Kind: Atomic, ReadOnly: true}, func(tx *Tx) { w.Load(tx) })
	mustRun(t, th, Props{Kind: Atomic, ReadOnly: true}, write)
	// A Retry wait, woken by a commit from a second thread once it is counted.
	done := make(chan struct{})
	go func() {
		defer close(done)
		mustRun(t, rt.NewThread(), Props{Kind: Atomic}, func(tx *Tx) {
			if flag.Load(tx) == 0 {
				tx.Retry()
			}
		})
	}()
	for rt.stats.Retries.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) { flag.Store(tx, 1) })
	<-done

	check := func(when string, wantZero bool) {
		t.Helper()
		s := reflect.ValueOf(rt.Stats())
		for i := 0; i < s.NumField(); i++ {
			f := s.Field(i)
			if f.Kind() != reflect.Uint64 {
				continue
			}
			if (f.Uint() == 0) != wantZero {
				t.Errorf("%s: %s = %d", when, s.Type().Field(i).Name, f.Uint())
			}
		}
	}
	check("after the workload", false)
	rt.ResetStats()
	check("after ResetStats", true)
	for i, n := range rt.Stats().ThreadCommits {
		if n != 0 {
			t.Errorf("after ResetStats: ThreadCommits[%d] = %d", i, n)
		}
	}
}

// TestTBytesDirectCopiesMatchModel checks the word-wise direct copies against
// a plain byte slice at every alignment of offset and length: whole words in
// the middle, read-modify-write of the ragged head and tail, and nothing
// outside the range disturbed.
func TestTBytesDirectCopiesMatchModel(t *testing.T) {
	const size = 61
	tb := NewTBytes(size)
	model := make([]byte, size)
	fill := byte(1)
	for off := 0; off < 20; off++ {
		for n := 0; off+n <= size; n += 1 + n/9 {
			src := make([]byte, n)
			for i := range src {
				src[i] = fill
				fill = fill*31 + 7
			}
			tb.WriteAtDirect(off, src)
			copy(model[off:], src)
			if got := tb.Bytes(); !bytes.Equal(got, model) {
				t.Fatalf("after WriteAtDirect(%d, %d bytes): %x, want %x", off, n, got, model)
			}
			got := make([]byte, n)
			tb.ReadAtDirect(got, off)
			if !bytes.Equal(got, model[off:off+n]) {
				t.Fatalf("ReadAtDirect(%d bytes, %d) = %x, want %x", n, off, got, model[off:off+n])
			}
		}
	}
	for _, bad := range []func(){
		func() { tb.WriteAtDirect(size-1, []byte{1, 2}) },
		func() { tb.ReadAtDirect(make([]byte, 2), size-1) },
		func() { tb.WriteAtDirect(-1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic for a range outside the buffer")
				}
			}()
			bad()
		}()
	}
}
