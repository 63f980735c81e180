package tmlib

import (
	"errors"
	"testing"

	"repro/internal/stm"
)

// expectBounds runs fn in a transaction expecting it to panic with
// ErrMarshalBounds, and asserts the shared buffer keeps its prior contents
// (abort semantics: the panic unwinds with every transactional effect undone).
func expectBounds(t *testing.T, buf *stm.TBytes, fn func(tx *stm.Tx)) {
	t.Helper()
	before := buf.Bytes()
	rt := stm.New(stm.Config{})
	th := rt.NewThread()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic; want ErrMarshalBounds")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrMarshalBounds) {
			t.Fatalf("panic = %v, want ErrMarshalBounds", r)
		}
		after := buf.Bytes()
		if string(after) != string(before) {
			t.Errorf("buffer mutated across aborted marshal: %q -> %q", before, after)
		}
	}()
	_ = th.Run(stm.Props{Kind: stm.Atomic}, fn)
}

func TestMarshalBounds(t *testing.T) {
	b := tb("abcdef")
	var three, two [3]byte
	expectBounds(t, b, func(tx *stm.Tx) { MarshalInto(tx, three[:], b, 4) })
	expectBounds(t, b, func(tx *stm.Tx) { MarshalInto(tx, two[:2], b, -1) })
	expectBounds(t, b, func(tx *stm.Tx) { MarshalInto(tx, three[:], b, 7) })
	expectBounds(t, b, func(tx *stm.Tx) { MarshalOut(tx, b, 4, []byte("xyz")) })
	expectBounds(t, b, func(tx *stm.Tx) { MarshalOut(tx, b, -1, []byte("x")) })
	expectBounds(t, b, func(tx *stm.Tx) { MarshalOut(tx, b, 7, nil) })
	// At the end of the buffer an empty marshal is in range.
	run(t, func(tx *stm.Tx) {
		MarshalInto(tx, nil, b, b.Len())
		MarshalOut(tx, b, b.Len(), nil)
	})
}

// TestMarshalBoundsRollsBackPriorWrites: bytes an earlier MarshalOut stored
// in the same attempt must vanish when a later one overflows, and the
// overflowing one must store nothing before it panics.
func TestMarshalBoundsRollsBackPriorWrites(t *testing.T) {
	b := tb("AAAAAA")
	expectBounds(t, b, func(tx *stm.Tx) {
		MarshalOut(tx, b, 0, []byte("BBBB")) // would commit, but...
		defer func() {
			r := recover()
			var seen [6]byte
			b.ReadAt(tx, seen[:], 0)
			if string(seen[:]) != "BBBBAA" {
				t.Errorf("buffer inside the attempt = %q, want BBBBAA", seen)
			}
			panic(r)
		}()
		MarshalOut(tx, b, 4, []byte("CCC")) // ...this overflows: all of it unwinds
	})
}
