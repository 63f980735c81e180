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

// New builds an entry the way the engine does — a chunk that fits, Reset, then
// Fill — with direct accesses, and gives the creator's reference back so the
// refcount starts at zero.
func New(key []byte, hash uint64, flags uint32, exptime uint64, nbytes int, class int) *Item {
	it := NewChunk(class, align8(SizeFor(len(key), nbytes)))
	c := access.DirectCtx{}
	suffixLen := it.Reset(c, len(key), flags, exptime, nbytes, 0)
	it.Fill(c, key, hash, flags, suffixLen, make([]byte, nbytes))
	it.Refcount.StoreDirect(0)
	return it
}

func newItem(key string, nbytes int) *Item {
	k := []byte(key)
	return New(k, fnv(k), 0, 0, nbytes, 1)
}

// TestChunkReuse: a chunk refilled with a shorter key and value holds exactly
// the new entry — offsets, lengths, suffix and bytes — whichever context wrote
// it, and the bytes of the previous entry beyond it do not show.
func TestChunkReuse(t *testing.T) {
	forEachCtx(t, func(t *testing.T, run func(func(access.Ctx))) {
		it := NewChunk(3, 240)
		fill := func(key, val string, flags uint32) {
			var n int
			run(func(c access.Ctx) { n = it.Reset(c, len(key), flags, 7, len(val), 42) })
			run(func(c access.Ctx) { it.Fill(c, []byte(key), fnv([]byte(key)), flags, n, []byte(val)) })
		}
		check := func(key, val, suffix string) {
			t.Helper()
			c := access.DirectCtx{}
			if it.KeyLen != len(key) || it.CapBytes != len(val) || int(c.Word(&it.NBytes)) != len(val) || it.Hash != fnv([]byte(key)) {
				t.Errorf("%q: KeyLen %d CapBytes %d NBytes %d", key, it.KeyLen, it.CapBytes, c.Word(&it.NBytes))
			}
			if c.Memcmp(it.Buf(), it.KeyOff(), []byte(key)) != 0 {
				t.Errorf("%q: key does not read back", key)
			}
			got := make([]byte, len(val))
			c.MemcpyOut(got, it.Buf(), it.DataOff(), len(val))
			sfx := make([]byte, it.SuffixLen)
			c.MemcpyOut(sfx, it.Buf(), it.SuffixOff(), it.SuffixLen)
			if string(got) != val || string(sfx) != suffix {
				t.Errorf("%q: value %q suffix %q, want %q %q", key, got, sfx, val, suffix)
			}
			if c.Volatile(&it.Refcount) != 1 || c.Word(&it.Exptime) != 7 || c.Word(&it.Time) != 42 {
				t.Errorf("%q: header not reset", key)
			}
		}
		long := "a-rather-long-key-of-thirty-bytes"
		fill(long, "0123456789012345678901234567890123456789", 9)
		check(long, "0123456789012345678901234567890123456789", " 9 40\r\n")
		fill("k", "xyz", 0)
		check("k", "xyz", " 0 3\r\n")
		if it.Class != 3 || it.Buf().Len() != 240-64 {
			t.Errorf("class %d, buffer %d bytes: a chunk keeps both for life", it.Class, it.Buf().Len())
		}
	})
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
