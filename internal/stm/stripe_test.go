package stm_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/stm"
	"repro/internal/tmlib"
)

// TestMemcpyBarrierCounts pins what a 256-byte tm_memcpy costs in barriers
// and log entries: one read or write barrier per 64-byte stripe on every
// algorithm (the injection point fires four times), one read-set entry or
// one orec acquisition per stripe where the orec algorithms copy a stripe at
// once, and a per-word log where the algorithm keeps one.
func TestMemcpyBarrierCounts(t *testing.T) {
	for _, c := range []struct {
		alg          stm.Algorithm
		readOnly     bool
		reads, vals  int // read-set entries, NOrec value-log entries after the copy out
		owned, undos int // orecs held, undo-log words after the copy in
	}{
		{stm.MLWT, false, 4, 0, 4, 32},
		{stm.LazyAlg, true, 4, 0, 0, 0},
		{stm.LazyAlg, false, 32, 0, 0, 0},
		{stm.NOrec, false, 0, 32, 0, 0},
	} {
		t.Run(fmt.Sprintf("%s/ro=%v", c.alg, c.readOnly), func(t *testing.T) {
			in := fault.New(1)
			in.Set(fault.STMReadDelay, 1)
			in.Set(fault.STMWriteDelay, 1)
			rt := stm.New(stm.Config{Algorithm: c.alg, Fault: in})
			th := rt.NewThread()
			buf := stm.NewTBytesFrom(bytes.Repeat([]byte("x"), 256))
			out := make([]byte, 256)
			var reads, vals int
			run := func(fn func(*stm.Tx)) {
				t.Helper()
				if err := th.Run(stm.Props{Kind: stm.Atomic, ReadOnly: c.readOnly}, fn); err != nil {
					t.Fatal(err)
				}
			}
			run(func(tx *stm.Tx) {
				tmlib.MemcpyToLocal(tx, out, buf, 0, 256)
				reads, vals = stm.ReadSetLen(tx), stm.ValueLogLen(tx)
			})
			if reads != c.reads || vals != c.vals {
				t.Errorf("copy out logged %d read-set and %d value entries, want %d and %d", reads, vals, c.reads, c.vals)
			}
			if n := in.Fired(fault.STMReadDelay); n != 4 {
				t.Errorf("read injection point fired %d times, want 4 (one per stripe)", n)
			}
			if c.readOnly {
				return
			}
			var owned, undos int
			run(func(tx *stm.Tx) {
				tmlib.MemcpyFromLocal(tx, buf, 0, bytes.Repeat([]byte("y"), 256))
				owned, undos = stm.OwnedLen(tx), stm.UndoLen(tx)
			})
			if owned != c.owned || undos != c.undos {
				t.Errorf("copy in held %d orecs with %d undo words, want %d and %d", owned, undos, c.owned, c.undos)
			}
			if n := in.Fired(fault.STMWriteDelay); n != 4 {
				t.Errorf("write injection point fired %d times, want 4 (one per stripe)", n)
			}
			if got := buf.Bytes(); !bytes.Equal(got, bytes.Repeat([]byte("y"), 256)) {
				t.Errorf("buffer after copy in = %q", got)
			}
		})
	}
}

// TestStripeSharesOrec: a committed write to word 7 of a stripe invalidates
// a transaction that read word 0 of it, while a write to word 8 — the next
// stripe — does not, on every orec algorithm and on the read-only fast path.
func TestStripeSharesOrec(t *testing.T) {
	for _, c := range []struct {
		alg      stm.Algorithm
		readOnly bool
	}{
		{stm.MLWT, false}, {stm.MLWT, true}, {stm.LazyAlg, false}, {stm.LazyAlg, true},
	} {
		for _, word := range []int{7, 8} {
			t.Run(fmt.Sprintf("%s/ro=%v/word%d", c.alg, c.readOnly, word), func(t *testing.T) {
				// The writer commits inside the reader's body, from the same
				// goroutine, so its commit must not wait for the reader.
				rt := stm.New(stm.Config{Algorithm: c.alg, NoQuiesce: true})
				reader, writer := rt.NewThread(), rt.NewThread()
				buf, sink := stm.NewTBytes(128), stm.NewTWord(0)
				err := reader.Run(stm.Props{Kind: stm.Atomic, ReadOnly: c.readOnly}, func(tx *stm.Tx) {
					buf.LoadWord(tx, 0)
					if reader.Aborts() == 0 {
						if err := writer.Run(stm.Props{Kind: stm.Atomic}, func(wtx *stm.Tx) {
							buf.StoreWord(wtx, word, 1)
						}); err != nil {
							t.Fatal(err)
						}
					}
					if !c.readOnly {
						sink.Store(tx, 1) // a writer's commit validates its reads
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				want := uint64(0)
				if word < stm.StripeBytes/8 {
					want = 1
				}
				if got := reader.Aborts(); got != want {
					t.Errorf("reader of word 0 aborted %d times after a write to word %d, want %d", got, word, want)
				}
			})
		}
	}
}
