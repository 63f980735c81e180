package engine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/assoc"
	"repro/internal/item"
)

// chunkOf returns the chunk key is linked in.
func chunkOf(t *testing.T, c *Cache, key string) *item.Item {
	t.Helper()
	it := c.shard0().tab.Find(access.DirectCtx{}, assoc.Hash([]byte(key)), []byte(key))
	if it == nil {
		t.Fatalf("key %q is not linked", key)
	}
	return it
}

// TestChunksAreRecycled: on every branch, replacing and deleting keys creates
// no chunk beyond the first few — the chunk a replace frees is the next one
// handed out — and ownership stays exact throughout.
func TestChunksAreRecycled(t *testing.T) {
	forEachBranch(t, func(t *testing.T, c *Cache) {
		w := c.NewWorker()
		val := bytes.Repeat([]byte("v"), 200)
		cls, _ := c.shard0().slabs.ClassFor(item.SizeFor(5, len(val)))
		for i := 0; i < 50; i++ {
			key := []byte(fmt.Sprintf("key-%d", i%3))
			if res := w.Set(key, uint32(i), 0, val); res != Stored {
				t.Fatalf("set %d: %v", i, res)
			}
			if i%7 == 6 {
				w.Delete(key)
			}
			if got, flags, _, ok := w.Get(key); ok && (flags != uint32(i) || !bytes.Equal(got, val)) {
				t.Fatalf("get %s after set %d: flags %d, %d bytes", key, i, flags, len(got))
			}
		}
		// Three keys live at most, plus the one chunk a set holds while the
		// entry it replaces is still linked.
		if created := c.shard0().slabs.Created(access.DirectCtx{}, cls); created > 4 {
			t.Errorf("50 sets over 3 keys created %d chunks, want <= 4", created)
		}
		if err := c.ValidateQuiescent(); err != nil {
			t.Error(err)
		}
	})
}

// TestRefusedStoreReleasesChunk: add on a present key, replace and cas on an
// absent one, and a cas that lost the race allocate before they know, and must
// give the chunk back.
func TestRefusedStoreReleasesChunk(t *testing.T) {
	forEachBranch(t, func(t *testing.T, c *Cache) {
		w := c.NewWorker()
		val := []byte("some-value")
		w.Set([]byte("here"), 0, 0, val)
		_, _, cas, _ := w.Get([]byte("here"))
		if res := w.Add([]byte("here"), 0, 0, val); res != NotStored {
			t.Errorf("add present = %v", res)
		}
		if res := w.Replace([]byte("gone"), 0, 0, val); res != NotStored {
			t.Errorf("replace absent = %v", res)
		}
		if res := w.CAS([]byte("gone"), 0, 0, val, 1); res != NotFound {
			t.Errorf("cas absent = %v", res)
		}
		if res := w.CAS([]byte("here"), 0, 0, val, cas+1); res != Exists {
			t.Errorf("cas stale = %v", res)
		}
		if res := w.Append([]byte("gone"), val); res != NotStored {
			t.Errorf("append absent = %v", res)
		}
		if err := c.ValidateQuiescent(); err != nil {
			t.Error(err)
		}
		s := c.shard0()
		cls, _ := s.slabs.ClassFor(item.SizeFor(4, len(val)))
		if created, free := s.slabs.Created(access.DirectCtx{}, cls), s.slabs.FreeChunks(access.DirectCtx{}, cls); created != 2 {
			t.Errorf("class %d: %d chunks created (%d free), want 2: one linked, one passed from refusal to refusal", cls, created, free)
		}
	})
}

// TestValidateCatchesOwnershipDamage seeds each way a chunk can end up in
// other than exactly one place and expects Validate to name it.
func TestValidateCatchesOwnershipDamage(t *testing.T) {
	dc := access.DirectCtx{}
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, c *Cache)
		want   string
	}{
		{"double free", func(t *testing.T, c *Cache) {
			c.NewWorker().Delete([]byte("a")) // frees a's chunk
			it, n := c.shard0().slabs.FreeList(dc, chunkClass(t, c))
			if n != 1 {
				t.Fatalf("freelist holds %d chunks after one delete", n)
			}
			c.shard0().slabs.Release(dc, it)
		}, "freelist"},
		{"freed while linked", func(t *testing.T, c *Cache) {
			c.shard0().slabs.Release(dc, chunkOf(t, c, "a"))
		}, "flags"},
		{"leak", func(t *testing.T, c *Cache) {
			s := c.shard0()
			if s.slabs.Alloc(dc, chunkClass(t, c)) == nil {
				t.Fatal("alloc failed")
			}
		}, "ownership"},
		{"slabbed flag off the freelist", func(t *testing.T, c *Cache) {
			c.NewWorker().Delete([]byte("a"))
			it, _ := c.shard0().slabs.FreeList(dc, chunkClass(t, c))
			it.ItFlags.StoreDirect(0)
		}, "flags"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCache(t, Baseline)
			w := c.NewWorker()
			w.Set([]byte("a"), 0, 0, []byte("value"))
			w.Set([]byte("b"), 0, 0, []byte("value"))
			if err := c.Validate(); err != nil {
				t.Fatalf("before the damage: %v", err)
			}
			tc.damage(t, c)
			if err := c.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}

func chunkClass(t *testing.T, c *Cache) int {
	t.Helper()
	cls, err := c.shard0().slabs.ClassFor(item.SizeFor(1, 5))
	if err != nil {
		t.Fatal(err)
	}
	return cls
}

// TestBatchDeferredWorkChecksIdentity replaces keys between a multi-get
// batch's commit and its deferred touch and unlink sections. The batch holds
// no reference, so by then the chunks it remembers hold other entries; the
// deferred sections must recognize that and leave the new entries alone —
// neither unlinked, nor counted expired, nor moved in the LRU. Before chunks
// were recycled the pointers went stale harmlessly (an unlinked item stays
// unlinked); with Linked() as the only check this test fails.
func TestBatchDeferredWorkChecksIdentity(t *testing.T) {
	for _, b := range []Branch{ITLib, ITOnCommit, ITNoLock} {
		t.Run(b.String(), func(t *testing.T) {
			c := newTestCache(t, b)
			w, other := c.NewWorker(), c.NewWorker()
			now := c.Now()
			val := bytes.Repeat([]byte("x"), 40)
			w.Set([]byte("expiring"), 0, now+10, val)
			w.Set([]byte("aging"), 0, 0, val)
			expiring, aging := chunkOf(t, c, "expiring"), chunkOf(t, c, "aging")
			c.SetTime(now + 100) // "expiring" is past its time, "aging" past the touch interval

			c.shard0().afterBatchCommit = func() {
				c.shard0().afterBatchCommit = nil
				// Free both chunks, then store two fresh keys: the freelist is
				// last-in first-out, so they land in exactly those chunks.
				other.Delete([]byte("expiring"))
				other.Delete([]byte("aging"))
				other.Set([]byte("new-1"), 0, 0, val)
				other.Set([]byte("new-2"), 0, 0, val)
				other.Set([]byte("newest"), 0, 0, val)
			}
			res := w.GetMulti([][]byte{[]byte("expiring"), []byte("aging")})
			if res[0].Found || !res[1].Found {
				t.Fatalf("batch = %v/%v, want miss/hit", res[0].Found, res[1].Found)
			}

			if a, e := chunkOf(t, c, "new-1"), chunkOf(t, c, "new-2"); a != aging || e != expiring {
				t.Fatalf("the new keys did not reuse the batch's chunks (%p %p, want %p %p): the test exercised nothing", a, e, aging, expiring)
			}
			for _, k := range []string{"new-1", "new-2", "newest"} {
				if got, _, _, ok := w.Get([]byte(k)); !ok || !bytes.Equal(got, val) {
					t.Errorf("%s: found=%v after the batch's deferred work", k, ok)
				}
			}
			if s := w.Stats(); s.Expired != 0 {
				t.Errorf("expired = %d: a live entry in a recycled chunk was reclaimed as stale", s.Expired)
			}
			// "newest" was linked last and nothing was touched since.
			cls := aging.Class
			if head := c.shard0().lru.Head(access.DirectCtx{}, cls); head != chunkOf(t, c, "newest") {
				t.Error("the deferred touch moved an entry it never read to the head of the LRU")
			}
			if err := c.ValidateQuiescent(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestNestedAllocationTakesFreshChunk: an allocation inside a transaction that
// stays open (a wire transaction's apply phase, an append) must not write the
// plain fields of a chunk other transactions may still be reading; it gets a
// new chunk and the class's count does not grow.
func TestNestedAllocationTakesFreshChunk(t *testing.T) {
	c := newTestCache(t, ITOnCommit)
	w := c.NewWorker()
	val := bytes.Repeat([]byte("y"), 40)
	w.Set([]byte("first"), 0, 0, val)
	recycled := chunkOf(t, c, "first")
	w.Delete([]byte("first"))
	cls := recycled.Class
	created := c.shard0().slabs.Created(access.DirectCtx{}, cls)

	out := w.CommitTx(nil, []TxOp{{Kind: TxSet, Key: []byte("in-tx"), Value: val}})
	if !out.Committed || out.Results[0].Store != Stored {
		t.Fatalf("commit = %+v", out)
	}
	if got := chunkOf(t, c, "in-tx"); got == recycled {
		t.Error("a set inside a wire transaction was filled into a recycled chunk")
	}
	if now := c.shard0().slabs.Created(access.DirectCtx{}, cls); now != created {
		t.Errorf("chunks of class %d: %d -> %d across an in-transaction allocation", cls, created, now)
	}
	if err := c.ValidateQuiescent(); err != nil {
		t.Error(err)
	}
}

// BenchmarkNestedAlloc prices the allocations that nest in an open
// transaction and therefore take a new chunk instead of a recycled one — a
// wire transaction's set, an append — next to the plain set that recycles, on
// a cache that evicts for every one of them (EXPERIMENTS.md quotes it against
// the parent commit).
func BenchmarkNestedAlloc(b *testing.B) {
	val := bytes.Repeat([]byte("v"), 6600) // 6000..6600 B values share one slab class
	for _, bc := range []struct {
		name   string
		branch Branch
		op     func(w *Worker, key []byte) bool
	}{
		{"set/it-oncommit", ITOnCommit, func(w *Worker, key []byte) bool { return w.Set(key, 0, 0, val) == Stored }},
		{"wiretx-set/it-oncommit", ITOnCommit, func(w *Worker, key []byte) bool {
			return w.CommitTx(nil, []TxOp{{Kind: TxSet, Key: key, Value: val}}).Committed
		}},
		{"set+append/it-oncommit", ITOnCommit, func(w *Worker, key []byte) bool {
			return w.Set(key, 0, 0, val[:6000]) == Stored && w.Append(key, val[:500]) == Stored
		}},
		{"set+append/baseline", Baseline, func(w *Worker, key []byte) bool {
			return w.Set(key, 0, 0, val[:6000]) == Stored && w.Append(key, val[:500]) == Stored
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := New(Config{Branch: bc.branch, MemLimit: 4 << 20, HashPower: 10})
			c.Start()
			defer c.Stop()
			w := c.NewWorker()
			keys := make([][]byte, 2000)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("key-%d", i))
				w.Set(keys[i], 0, 0, val)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !bc.op(w, keys[i%len(keys)]) {
					b.Fatal("not stored")
				}
			}
		})
	}
}
