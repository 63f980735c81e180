package assoc

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/access"
	"repro/internal/item"
	"repro/internal/race"
	"repro/internal/stm"
)

var dc = access.DirectCtx{}

func mk(key string) *item.Item {
	k := []byte(key)
	it := item.NewChunk(0, 192)
	it.Fill(dc, k, Hash(k), 0, it.Reset(dc, len(k), 0, 0, 1, 0), []byte{0})
	return it
}

func TestInsertFindDelete(t *testing.T) {
	tab := New(4)
	it := mk("hello")
	tab.Insert(dc, it)
	if got := tab.Find(dc, it.Hash, []byte("hello")); got != it {
		t.Fatal("Find missed after Insert")
	}
	if got := tab.Find(dc, Hash([]byte("other")), []byte("other")); got != nil {
		t.Fatal("Find hit absent key")
	}
	if tab.Items(dc) != 1 {
		t.Errorf("Items = %d", tab.Items(dc))
	}
	del := tab.Delete(dc, it.Hash, []byte("hello"))
	if del != it {
		t.Fatal("Delete missed")
	}
	if tab.Find(dc, it.Hash, []byte("hello")) != nil {
		t.Fatal("Find hit after Delete")
	}
	if tab.Items(dc) != 0 {
		t.Errorf("Items = %d", tab.Items(dc))
	}
}

func TestChainCollisions(t *testing.T) {
	tab := New(1) // 2 buckets: guaranteed collisions
	items := make([]*item.Item, 20)
	for i := range items {
		items[i] = mk(fmt.Sprintf("key-%d", i))
		tab.Insert(dc, items[i])
	}
	for i, it := range items {
		if got := tab.Find(dc, it.Hash, []byte(fmt.Sprintf("key-%d", i))); got != it {
			t.Fatalf("key-%d lost in chain", i)
		}
	}
	// Delete from middle of chains.
	for i := 0; i < 20; i += 2 {
		if tab.Delete(dc, items[i].Hash, []byte(fmt.Sprintf("key-%d", i))) == nil {
			t.Fatalf("delete key-%d failed", i)
		}
	}
	for i := 0; i < 20; i++ {
		got := tab.Find(dc, items[i].Hash, []byte(fmt.Sprintf("key-%d", i)))
		if i%2 == 0 && got != nil {
			t.Errorf("deleted key-%d still found", i)
		}
		if i%2 == 1 && got != items[i] {
			t.Errorf("surviving key-%d lost", i)
		}
	}
}

func TestRemoveItemByIdentity(t *testing.T) {
	tab := New(2)
	a, b := mk("aa"), mk("bb")
	tab.Insert(dc, a)
	tab.Insert(dc, b)
	if !tab.RemoveItem(dc, a) {
		t.Fatal("RemoveItem missed")
	}
	if tab.RemoveItem(dc, a) {
		t.Fatal("RemoveItem found twice")
	}
	if tab.Find(dc, b.Hash, []byte("bb")) != b {
		t.Fatal("unrelated item lost")
	}
}

func TestExpansionPreservesItems(t *testing.T) {
	tab := New(3) // 8 buckets
	var items []*item.Item
	for i := 0; i < 50; i++ {
		it := mk(fmt.Sprintf("k-%d", i))
		tab.Insert(dc, it)
		items = append(items, it)
	}
	if !tab.NeedExpand(dc) {
		t.Fatal("NeedExpand = false at 50/8")
	}
	tab.StartExpand(dc)
	if !tab.IsExpanding(dc) {
		t.Fatal("not expanding after StartExpand")
	}
	if tab.Size(dc) != 16 {
		t.Errorf("primary size = %d, want 16", tab.Size(dc))
	}
	// Everything must be reachable mid-expansion, stepping one bucket at a
	// time and checking after each step.
	for step := 0; tab.IsExpanding(dc); step++ {
		tab.ExpandStep(dc, 1)
		for i, it := range items {
			if got := tab.Find(dc, it.Hash, []byte(fmt.Sprintf("k-%d", i))); got != it {
				t.Fatalf("k-%d lost at step %d", i, step)
			}
		}
		if step > 100 {
			t.Fatal("expansion never finished")
		}
	}
	if tab.Items(dc) != 50 {
		t.Errorf("Items = %d", tab.Items(dc))
	}
	// Insert/delete still work after expansion.
	extra := mk("extra")
	tab.Insert(dc, extra)
	if tab.Find(dc, extra.Hash, []byte("extra")) != extra {
		t.Error("post-expansion insert lost")
	}
}

func TestExpandStepLockedSavesForLater(t *testing.T) {
	tab := New(1) // 2 buckets, everything collides
	var items []*item.Item
	for i := 0; i < 8; i++ {
		it := mk(fmt.Sprintf("k-%d", i))
		tab.Insert(dc, it)
		items = append(items, it)
	}
	tab.StartExpand(dc)

	// First pass: refuse every lock — nothing may move, bucket must not
	// advance, and every item stays findable.
	still := tab.ExpandStepLocked(dc, 1, func(hv uint64) (func(), bool) { return nil, false })
	if !still {
		t.Fatal("expansion finished despite locks denied")
	}
	for i, it := range items {
		if got := tab.Find(dc, it.Hash, []byte(fmt.Sprintf("k-%d", i))); got != it {
			t.Fatalf("k-%d lost after denied pass", i)
		}
	}

	// Second pass: grant all locks until done.
	locks := 0
	for tab.IsExpanding(dc) {
		tab.ExpandStepLocked(dc, 1, func(hv uint64) (func(), bool) {
			locks++
			return func() {}, true
		})
	}
	if locks == 0 {
		t.Error("trylock callback never invoked")
	}
	for i, it := range items {
		if got := tab.Find(dc, it.Hash, []byte(fmt.Sprintf("k-%d", i))); got != it {
			t.Fatalf("k-%d lost after expansion", i)
		}
	}
}

func TestExpansionUnderTransactions(t *testing.T) {
	rt := stm.New(stm.Config{})
	th := rt.NewThread()
	tab := New(2)
	run := func(fn func(access.Ctx)) {
		err := th.Run(stm.Props{Kind: stm.Atomic}, func(tx *stm.Tx) {
			fn(access.TxCtx{T: tx, Profile: access.Profile{TxVolatiles: true, SafeLibc: true}})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		it := mk(fmt.Sprintf("t-%d", i))
		run(func(c access.Ctx) { tab.Insert(c, it) })
	}
	run(func(c access.Ctx) {
		if tab.NeedExpand(c) {
			tab.StartExpand(c)
		}
	})
	for {
		var expanding bool
		run(func(c access.Ctx) { expanding = tab.ExpandStep(c, 2) })
		if !expanding {
			break
		}
	}
	for i := 0; i < 20; i++ {
		key := []byte(fmt.Sprintf("t-%d", i))
		var found bool
		run(func(c access.Ctx) { found = tab.Find(c, Hash(key), key) != nil })
		if !found {
			t.Fatalf("t-%d lost", i)
		}
	}
}

func TestHashQuality(t *testing.T) {
	// Property: equal keys hash equal; a one-byte flip changes the hash
	// (overwhelmingly likely for FNV on short keys).
	f := func(key []byte) bool {
		if len(key) == 0 {
			return true
		}
		h := Hash(key)
		if h != Hash(append([]byte(nil), key...)) {
			return false
		}
		mod := append([]byte(nil), key...)
		mod[0] ^= 0xFF
		return Hash(mod) != h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestAllocsInsertDelete: chain heads and links are pointer cells, so moving
// an item in and out of a chain allocates nothing, in or out of a transaction.
func TestAllocsInsertDelete(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	tab := New(2)
	key := []byte("alloc-key")
	it := mk(string(key))
	for i := 0; i < 8; i++ { // neighbours, so the chains are not trivial
		tab.Insert(dc, mk(fmt.Sprintf("n-%d", i)))
	}
	cycle := func(c access.Ctx) {
		tab.Insert(c, it)
		if tab.Find(c, it.Hash, key) != it || tab.Delete(c, it.Hash, key) != it {
			t.Fatal("item lost between Insert and Delete")
		}
	}
	if n := testing.AllocsPerRun(100, func() { cycle(dc) }); n != 0 {
		t.Errorf("Insert+Find+Delete direct: %.1f allocs, want 0", n)
	}

	th := stm.New(stm.Config{}).NewThread()
	txc := &access.TxCtx{Profile: access.Profile{TxVolatiles: true, SafeLibc: true}}
	inTx := func() {
		_ = th.Run(stm.Props{Kind: stm.Atomic}, func(tx *stm.Tx) {
			txc.T = tx
			cycle(txc)
		})
	}
	inTx() // warm-up: the read set and undo log grow once
	if n := testing.AllocsPerRun(100, inTx); n != 0 {
		t.Errorf("Insert+Find+Delete in a transaction: %.1f allocs, want 0", n)
	}
}
