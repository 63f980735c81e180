package item

import (
	"fmt"
	"testing"

	"repro/internal/access"
	"repro/internal/stm"
)

// fnv mirrors assoc.Hash (importing assoc here would be an import cycle).
func fnv(key []byte) uint64 {
	h := uint64(1469598103934665603)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// ctxs returns both access contexts so every test runs under direct and
// transactional access.
func forEachCtx(t *testing.T, fn func(t *testing.T, run func(func(access.Ctx)))) {
	t.Helper()
	t.Run("direct", func(t *testing.T) {
		fn(t, func(body func(access.Ctx)) { body(access.DirectCtx{}) })
	})
	t.Run("tx", func(t *testing.T) {
		rt := stm.New(stm.Config{})
		th := rt.NewThread()
		fn(t, func(body func(access.Ctx)) {
			err := th.Run(stm.Props{Kind: stm.Atomic}, func(tx *stm.Tx) {
				body(access.TxCtx{T: tx, Profile: access.Profile{TxVolatiles: true, SafeLibc: true, OnCommitIO: true}})
			})
			if err != nil {
				t.Fatalf("tx: %v", err)
			}
		})
	})
}

func newItem(key string, nbytes int) *Item {
	k := []byte(key)
	return New(k, fnv(k), 0, 0, nbytes, 1)
}

func TestLinkedFlag(t *testing.T) {
	forEachCtx(t, func(t *testing.T, run func(func(access.Ctx))) {
		it := newItem("k", 4)
		run(func(c access.Ctx) {
			if it.Linked(c) {
				t.Error("fresh item linked")
			}
			it.SetLinked(c, true)
			if !it.Linked(c) {
				t.Error("SetLinked(true) lost")
			}
			it.SetLinked(c, false)
			if it.Linked(c) {
				t.Error("SetLinked(false) lost")
			}
		})
	})
}

func TestRefcounting(t *testing.T) {
	forEachCtx(t, func(t *testing.T, run func(func(access.Ctx))) {
		it := newItem("k", 4)
		run(func(c access.Ctx) {
			if got := it.RefIncr(c); got != 1 {
				t.Errorf("RefIncr = %d", got)
			}
			if got := it.RefIncr(c); got != 2 {
				t.Errorf("RefIncr = %d", got)
			}
			if got := it.RefDecr(c); got != 1 {
				t.Errorf("RefDecr = %d", got)
			}
			if got := it.RefGet(c); got != 1 {
				t.Errorf("RefGet = %d", got)
			}
		})
	})
}

func TestExpired(t *testing.T) {
	forEachCtx(t, func(t *testing.T, run func(func(access.Ctx))) {
		run(func(c access.Ctx) {
			forever := newItem("f", 1)
			if forever.Expired(c, 1e9) {
				t.Error("exptime 0 expired")
			}
			it := New([]byte("k"), 1, 0, 100, 1, 0)
			if it.Expired(c, 99) {
				t.Error("expired before exptime")
			}
			if !it.Expired(c, 100) {
				t.Error("not expired at exptime")
			}
		})
	})
}

func TestLRUOrdering(t *testing.T) {
	forEachCtx(t, func(t *testing.T, run func(func(access.Ctx))) {
		l := NewLRU(4)
		items := make([]*Item, 5)
		for i := range items {
			items[i] = newItem(fmt.Sprintf("k%d", i), 4)
		}
		run(func(c access.Ctx) {
			for _, it := range items {
				l.Link(c, it)
			}
			if got := l.Len(c, 1); got != 5 {
				t.Fatalf("Len = %d", got)
			}
			if l.Head(c, 1) != items[4] {
				t.Error("head is not most recent")
			}
			if l.Tail(c, 1) != items[0] {
				t.Error("tail is not least recent")
			}
			// Touch the tail: it becomes head.
			l.Touch(c, items[0], 42)
			if l.Head(c, 1) != items[0] || l.Tail(c, 1) != items[1] {
				t.Error("Touch did not move item to head")
			}
			if got := c.Word(&items[0].Time); got != 42 {
				t.Errorf("Touch time = %d", got)
			}
			// Unlink middle, head, tail.
			l.Unlink(c, items[3])
			l.Unlink(c, items[0])
			l.Unlink(c, items[1])
			if got := l.Len(c, 1); got != 2 {
				t.Fatalf("Len after unlinks = %d", got)
			}
			// Walk tail -> head and check consistency.
			seen := 0
			for it := l.Tail(c, 1); it != nil; it = access.Ptr(c, &it.Prev) {
				seen++
			}
			if seen != 2 {
				t.Errorf("walk saw %d items, want 2", seen)
			}
		})
	})
}

func TestLRUClassIsolation(t *testing.T) {
	forEachCtx(t, func(t *testing.T, run func(func(access.Ctx))) {
		l := NewLRU(3)
		a := New([]byte("a"), 1, 0, 0, 1, 0)
		b := New([]byte("b"), 2, 0, 0, 1, 2)
		run(func(c access.Ctx) {
			l.Link(c, a)
			l.Link(c, b)
			if l.Head(c, 0) != a || l.Head(c, 2) != b {
				t.Error("classes mixed")
			}
			if l.Head(c, 1) != nil {
				t.Error("empty class non-empty")
			}
		})
	})
}

func TestSizeFor(t *testing.T) {
	if SizeFor(5, 100) <= 105 {
		t.Error("SizeFor must include header and suffix overhead")
	}
	it := newItem("hello", 100)
	got := it.TotalBytes(access.DirectCtx{})
	if got != SizeFor(5, 100) {
		t.Errorf("TotalBytes = %d, want %d", got, SizeFor(5, 100))
	}
}
