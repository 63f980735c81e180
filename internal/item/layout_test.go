package item

import (
	"testing"

	"repro/internal/access"
	"repro/internal/race"
	"repro/internal/stm"
	"repro/internal/txobs"
)

// TestLayout pins what the rest of the system relies on in the flat item:
// regions at word-aligned offsets (no two regions share a word, so writing
// one never rewrites another's bytes), a key/suffix/data round trip through
// them, and the per-field conflict labels `stats conflicts` has always
// printed.
func TestLayout(t *testing.T) {
	for _, keyLen := range []int{1, 7, 8, 9, 16, 250} {
		key := make([]byte, keyLen)
		for i := range key {
			key[i] = byte('a' + i%26)
		}
		val := []byte("0123456789abc")
		c := access.DirectCtx{}
		it := NewChunk(1, align8(SizeFor(keyLen, len(val))))
		it.Fill(c, key, fnv(key), 5, it.Reset(c, keyLen, 5, 0, len(val), 0), val)

		if it.KeyOff()%8 != 0 || it.SuffixOff()%8 != 0 || it.DataOff()%8 != 0 {
			t.Errorf("keyLen %d: offsets %d/%d/%d not word-aligned", keyLen, it.KeyOff(), it.SuffixOff(), it.DataOff())
		}
		if it.SuffixOff() < it.KeyOff()+keyLen || it.DataOff() < it.SuffixOff()+it.SuffixLen ||
			it.Buf().Len() < it.DataOff()+len(val) {
			t.Errorf("keyLen %d: regions overlap or buffer mis-sized: %d/%d/%d in %d", keyLen, it.KeyOff(), it.SuffixOff(), it.DataOff(), it.Buf().Len())
		}
		if c.Memcmp(it.Buf(), it.KeyOff(), key) != 0 {
			t.Errorf("keyLen %d: key does not read back", keyLen)
		}
		suffix := make([]byte, it.SuffixLen)
		c.MemcpyOut(suffix, it.Buf(), it.SuffixOff(), it.SuffixLen)
		if string(suffix) != " 5 13\r\n" {
			t.Errorf("keyLen %d: suffix %q", keyLen, suffix)
		}
		got := make([]byte, len(val))
		c.MemcpyOut(got, it.Buf(), it.DataOff(), len(val))
		if string(got) != string(val) {
			t.Errorf("keyLen %d: data %q", keyLen, got)
		}
	}

	// The widest suffix the protocol can ask for fits its region.
	it := newItem("k", 1<<20)
	if n := (access.DirectCtx{}).FormatSuffix(it.Buf(), it.SuffixOff(), 1<<32-1, 1<<20); n > suffixCap {
		t.Errorf("widest suffix is %d bytes, region holds %d", n, suffixCap)
	}

	it = newItem("k", 4)
	for _, f := range []struct {
		field string
		got   txobs.Label
		want  string
	}{
		{"NBytes", it.NBytes.LabelOf(), "item_header"},
		{"ItFlags", it.ItFlags.LabelOf(), "item_header"},
		{"Exptime", it.Exptime.LabelOf(), "item_header"},
		{"Time", it.Time.LabelOf(), "item_header"},
		{"CasID", it.CasID.LabelOf(), "item_header"},
		{"Refcount", it.Refcount.LabelOf(), "item_refcount"},
		{"HNext", it.HNext.LabelOf(), "hash_chain"},
		{"Prev", it.Prev.LabelOf(), "lru_link"},
		{"Next", it.Next.LabelOf(), "lru_link"},
		{"Buf", it.Buf().LabelOf(), "item_data"},
	} {
		if f.got.String() != f.want {
			t.Errorf("%s is labelled %q, want %q", f.field, f.got, f.want)
		}
	}
	l := NewLRU(2)
	if l.heads[1].LabelOf().String() != "lru_head" || l.tails[1].LabelOf().String() != "lru_head" || l.sizes[1].LabelOf().String() != "lru_head" {
		t.Error("LRU heads, tails and sizes must be labelled lru_head")
	}
}

// TestLayoutSizeFor: the accounting is memcached's, not the Go layout's, so
// slab classes, evictions and the bytes stat did not move with the layout.
func TestLayoutSizeFor(t *testing.T) {
	for _, c := range []struct{ keyLen, nbytes, want int }{
		{1, 0, 97}, {5, 100, 201}, {12, 64, 172}, {16, 1024, 1136}, {250, 8192, 8538}, {250, 1 << 20, 1<<20 + 346},
	} {
		if got := SizeFor(c.keyLen, c.nbytes); got != c.want {
			t.Errorf("SizeFor(%d, %d) = %d, want %d", c.keyLen, c.nbytes, got, c.want)
		}
	}
}

func TestAllocsItem(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	// A chunk is created once — two heap objects, the struct and its word
	// buffer — and every entry it holds afterwards costs none.
	key, val := []byte("key-00000001"), make([]byte, 64)
	var chunk *Item
	if n := testing.AllocsPerRun(100, func() { chunk = NewChunk(1, 192) }); n != 2 {
		t.Errorf("item.NewChunk: %.0f heap objects, want 2 (the struct and its word buffer)", n)
	}
	dc := access.DirectCtx{}
	if n := testing.AllocsPerRun(100, func() { chunk.Fill(dc, key, 1, 0, chunk.Reset(dc, len(key), 0, 0, len(val), 0), val) }); n != 0 {
		t.Errorf("Reset+Fill of an existing chunk: %.1f allocs, want 0", n)
	}

	l := NewLRU(2)
	a, b := newItem("a", 1), newItem("b", 1)
	rt := stm.New(stm.Config{})
	th := rt.NewThread()
	txc := &access.TxCtx{Profile: access.Profile{TxVolatiles: true, SafeLibc: true, OnCommitIO: true}}
	inTx := func(fn func(access.Ctx)) {
		_ = th.Run(stm.Props{Kind: stm.Atomic}, func(tx *stm.Tx) {
			txc.T = tx
			fn(txc)
		})
	}
	inTx(func(c access.Ctx) { l.Link(c, a); l.Link(c, b) })
	touch := func(c access.Ctx) { l.Touch(c, a, 1); l.Touch(c, b, 2) }
	inTx(touch) // warm-up: the undo log grows once
	if n := testing.AllocsPerRun(100, func() { inTx(touch) }); n != 0 {
		t.Errorf("LRU.Touch in a transaction: %.1f allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { touch(access.DirectCtx{}) }); n != 0 {
		t.Errorf("LRU.Touch direct: %.1f allocs, want 0", n)
	}
}
