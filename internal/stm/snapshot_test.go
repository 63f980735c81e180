package stm

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
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
	for _, alg := range []Algorithm{MLWT, LazyAlg, NOrec, TML} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			rt := New(Config{Algorithm: alg})
			th := rt.NewThread()
			f := func(content []byte, pad uint8) bool {
				tb := NewTBytes(len(content) + int(pad))
				err := th.Run(Props{Kind: Atomic}, func(tx *Tx) {
					tb.WriteAll(tx, content)
				})
				if err != nil {
					return false
				}
				out := make([]byte, tb.Len())
				err = th.Run(Props{Kind: Atomic}, func(tx *Tx) {
					tb.ReadAll(tx, out)
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

// TestPartialWordWriteAll: WriteAll of a source shorter than the buffer must
// preserve the bytes beyond the source within the same trailing word.
func TestPartialWordWriteAll(t *testing.T) {
	rt := New(Config{})
	th := rt.NewThread()
	tb := NewTBytesFrom([]byte("ABCDEFGHIJKLMNOP")) // 16 bytes, 2 words
	mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
		tb.WriteAll(tx, []byte("xyz")) // 3 bytes into word 0
	})
	if got := string(tb.Bytes()); got != "xyzDEFGHIJKLMNOP" {
		t.Errorf("partial WriteAll = %q", got)
	}
}

// TestTAnyNilAndTypes: TAny must carry nil and distinct types faithfully.
func TestTAnyNilAndTypes(t *testing.T) {
	rt := New(Config{})
	th := rt.NewThread()
	a := NewTAny(nil)
	if a.LoadDirect() != nil {
		t.Error("initial nil lost")
	}
	type payload struct{ n int }
	p := &payload{n: 7}
	mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
		if a.Load(tx) != nil {
			t.Error("nil load in tx")
		}
		a.Store(tx, p)
	})
	if got := a.LoadDirect(); got != p {
		t.Errorf("pointer identity lost: %v", got)
	}
	mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
		a.Store(tx, "now a string")
	})
	if a.LoadDirect() != "now a string" {
		t.Error("type change lost")
	}
}

// TestSnapshotStatsFields: the snapshot carries every counter.
func TestSnapshotStatsFields(t *testing.T) {
	rt := New(Config{Algorithm: HTM, HTMCapacity: 4, HTMRetries: 1})
	th := rt.NewThread()
	words := make([]*TWord, 16)
	for i := range words {
		words[i] = NewTWord(0)
	}
	mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
		for _, w := range words {
			w.Store(tx, 1)
		}
	})
	s := rt.Stats()
	if s.HTMCapacityAborts == 0 || s.HTMFallbacks == 0 || s.SerialCommits == 0 {
		t.Errorf("HTM counters missing from snapshot: %+v", s)
	}
	rt.ResetStats()
	s = rt.Stats()
	if s.Commits != 0 || s.HTMCapacityAborts != 0 || s.HTMFallbacks != 0 || s.Retries != 0 {
		t.Errorf("ResetStats incomplete: %+v", s)
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
