// Package assoc is memcached's hash table (assoc.c): power-of-two bucket
// arrays with chained items, plus the incremental expansion protocol in which
// a maintenance thread migrates buckets from the old table to a doubled new
// one while lookups consult whichever table still owns their bucket.
//
// Chain membership (HNext and bucket heads) belongs to the item-lock domain;
// the table structure (expansion state, bucket array swap) belongs to the
// cache-lock domain, matching the lock order the paper documents. All shared
// accesses go through an access.Ctx provided by a caller holding the
// appropriate protection.
package assoc

import (
	"repro/internal/access"
	"repro/internal/item"
	"repro/internal/stm"
	"repro/internal/txobs"
)

// Observability labels for the conflict heat map: chain heads are the
// item-lock domain's hottest words, the expansion state is the structure that
// serializes the hash maintenance thread.
var (
	lblHashBucket = txobs.RegisterLabel("hash_bucket")
	lblHashState  = txobs.RegisterLabel("hash_state")
	lblHashItems  = txobs.RegisterLabel("hash_items")
)

// DefaultPowerBits is memcached's initial hash power (16 → 65536 buckets).
// Tests and benchmarks use smaller tables to exercise expansion.
const DefaultPowerBits = 16

// BulkMove is how many buckets one maintenance step migrates
// (DEFAULT_HASH_BULK_MOVE).
const BulkMove = 1

// buckets is one bucket array: the chain heads as a value array of pointer
// cells, their ids one consecutive block.
type buckets struct {
	arr   []stm.TPtr[item.Item]
	power uint
}

func newBuckets(power uint) *buckets {
	b := &buckets{arr: make([]stm.TPtr[item.Item], 1<<power), power: power}
	id := stm.ReserveIDs(len(b.arr))
	for i := range b.arr {
		b.arr[i].Init(id+uint64(i), lblHashBucket, nil)
	}
	return b
}

func (b *buckets) mask() uint64 { return uint64(len(b.arr)) - 1 }

// Table is the hash table.
type Table struct {
	primary stm.TPtr[buckets]
	old     stm.TPtr[buckets] // non-nil while expanding

	// Expanding is the "volatile" expansion flag; ExpandBucket is the next
	// old-table bucket to migrate.
	Expanding    *stm.TWord
	ExpandBucket *stm.TWord

	// Count is hash_items.
	Count *stm.TWord
}

// New creates a table with 2^power buckets.
func New(power uint) *Table {
	t := &Table{
		Expanding:    stm.NewTWord(0).Label(lblHashState),
		ExpandBucket: stm.NewTWord(0).Label(lblHashState),
		Count:        stm.NewTWord(0).Label(lblHashItems),
	}
	id := stm.ReserveIDs(2)
	t.primary.Init(id, lblHashState, newBuckets(power))
	t.old.Init(id+1, lblHashState, nil)
	return t
}

// Hash is the hash function used for keys (FNV-1a 64, standing in for
// memcached's Jenkins hash).
func Hash(key []byte) uint64 {
	h := uint64(1469598103934665603)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// bucketFor returns the head cell of the chain owning hash hv.
//
// Lookups in the IP and lock branches read this structure while holding only
// the key's item lock (memcached's post-1.4.10 scalability design), so the
// routing must stay correct against a concurrent maintainer that holds the
// cache-lock domain but not this key's stripe. The invariants that make that
// safe: (1) an item's own bucket cannot migrate while its stripe is held
// (ExpandStepLocked trylocks the stripe); (2) StartExpand publishes the new
// primary table only after Expanding is visible, so a reader that still sees
// Expanding==0 also still sees the pre-expansion primary.
func (t *Table) bucketFor(c access.Ctx, hv uint64) *stm.TPtr[item.Item] {
	p := access.Ptr(c, &t.primary)
	if c.Word(t.Expanding) != 0 {
		if o := access.Ptr(c, &t.old); o != nil {
			ob := hv & o.mask()
			if ob >= c.Word(t.ExpandBucket) {
				return &o.arr[ob]
			}
		}
	}
	return &p.arr[hv&p.mask()]
}

// Find walks the chain for key, comparing via the context's memcmp (the libc
// call that is unsafe inside transactions before stage Lib).
func (t *Table) Find(c access.Ctx, hv uint64, key []byte) *item.Item {
	it := access.Ptr(c, t.bucketFor(c, hv))
	for it != nil {
		if it.Hash == hv && it.KeyLen == len(key) && c.Memcmp(it.Buf(), it.KeyOff(), key) == 0 {
			return it
		}
		it = access.Ptr(c, &it.HNext)
	}
	return nil
}

// Insert pushes it onto its chain. The caller ensures the key is absent.
func (t *Table) Insert(c access.Ctx, it *item.Item) {
	b := t.bucketFor(c, it.Hash)
	access.SetPtr(c, &it.HNext, access.Ptr(c, b))
	access.SetPtr(c, b, it)
	c.AddWord(t.Count, 1)
}

// Delete removes the item with the given key from its chain and returns it,
// or nil if absent.
func (t *Table) Delete(c access.Ctx, hv uint64, key []byte) *item.Item {
	b := t.bucketFor(c, hv)
	var prev *item.Item
	it := access.Ptr(c, b)
	for it != nil {
		if it.Hash == hv && it.KeyLen == len(key) && c.Memcmp(it.Buf(), it.KeyOff(), key) == 0 {
			t.unchain(c, b, prev, it)
			return it
		}
		prev = it
		it = access.Ptr(c, &it.HNext)
	}
	return nil
}

// RemoveItem unlinks exactly the given item from its chain (identity, not key,
// comparison — eviction and expiry-reclaim already hold the item pointer) and
// reports whether it was found.
func (t *Table) RemoveItem(c access.Ctx, target *item.Item) bool {
	b := t.bucketFor(c, target.Hash)
	var prev *item.Item
	it := access.Ptr(c, b)
	for it != nil {
		if it == target {
			t.unchain(c, b, prev, it)
			return true
		}
		prev = it
		it = access.Ptr(c, &it.HNext)
	}
	return false
}

// unchain takes it out of the chain headed by b, where prev is its
// predecessor (nil when it is the head).
func (t *Table) unchain(c access.Ctx, b *stm.TPtr[item.Item], prev, it *item.Item) {
	next := access.Ptr(c, &it.HNext)
	if prev == nil {
		access.SetPtr(c, b, next)
	} else {
		access.SetPtr(c, &prev.HNext, next)
	}
	access.SetPtr(c, &it.HNext, nil)
	c.AddWord(t.Count, ^uint64(0))
}

// Size returns the number of buckets in the primary table.
func (t *Table) Size(c access.Ctx) uint64 {
	return uint64(len(access.Ptr(c, &t.primary).arr))
}

// Items returns hash_items.
func (t *Table) Items(c access.Ctx) uint64 { return c.Word(t.Count) }

// NeedExpand reports whether the item count has outgrown the table (the
// 3/2-full trigger memcached uses before waking the maintenance thread).
func (t *Table) NeedExpand(c access.Ctx) bool {
	if c.Word(t.Expanding) != 0 {
		return false
	}
	p := access.Ptr(c, &t.primary)
	return c.Word(t.Count) > uint64(len(p.arr))*3/2
}

// StartExpand swaps in a doubled primary table and begins migration
// (assoc_expand). Caller holds the cache-lock domain.
func (t *Table) StartExpand(c access.Ctx) {
	if c.Word(t.Expanding) != 0 {
		return
	}
	p := access.Ptr(c, &t.primary)
	// Publication order matters for item-lock-only readers: old and the
	// cursor first, then the flag, and the new primary strictly last — a
	// reader observing Expanding==0 must still find the pre-expansion table
	// in primary, and one observing Expanding==1 routes through old.
	access.SetPtr(c, &t.old, p)
	c.SetWord(t.ExpandBucket, 0)
	c.SetWord(t.Expanding, 1)
	access.SetPtr(c, &t.primary, newBuckets(p.power+1))
}

// Expanding reports whether a migration is in flight.
func (t *Table) IsExpanding(c access.Ctx) bool { return c.Word(t.Expanding) != 0 }

// ExpandStep migrates up to n old-table buckets into the primary table and
// reports whether expansion is still in progress afterwards. Caller holds the
// cache-lock domain.
func (t *Table) ExpandStep(c access.Ctx, n int) bool {
	return t.ExpandStepLocked(c, n, nil)
}

// ExpandStepLocked is ExpandStep with the Figure 1a trylock protocol: the
// maintenance thread holds the cache-lock domain and trylocks the item lock
// covering each bucket (later in the lock order — the documented order
// violation). tryLock returns an unlock function and whether the lock was
// obtained; a bucket whose lock is unavailable stays put for a later pass
// (the "save_for_later" path). A nil tryLock moves everything
// unconditionally (the IT branches, where TM conflict detection replaces the
// locks).
//
// One trylock covers a whole chain — same-bucket items share a stripe
// (stripes <= buckets) — and it is held until the chain has moved, the old
// head is cleared and the cursor has passed the bucket. Lookups hold only
// their item lock, so anything less lets one in halfway: it would walk the
// old chain through an already-moved item into the new table and miss a key
// still waiting behind it, or find the bucket drained while the cursor still
// routes it there.
func (t *Table) ExpandStepLocked(c access.Ctx, n int, tryLock func(hv uint64) (func(), bool)) bool {
	if c.Word(t.Expanding) == 0 {
		return false
	}
	o := access.Ptr(c, &t.old)
	p := access.Ptr(c, &t.primary)
	eb := c.Word(t.ExpandBucket)
	for i := 0; i < n && eb < uint64(len(o.arr)); i++ {
		it := access.Ptr(c, &o.arr[eb])
		unlock := func() {}
		if it != nil && tryLock != nil {
			var ok bool
			if unlock, ok = tryLock(it.Hash); !ok {
				break // retry this bucket on the next pass
			}
		}
		for it != nil {
			next := access.Ptr(c, &it.HNext)
			dst := &p.arr[it.Hash&p.mask()]
			access.SetPtr(c, &it.HNext, access.Ptr(c, dst))
			access.SetPtr(c, dst, it)
			it = next
		}
		access.SetPtr(c, &o.arr[eb], nil)
		eb++
		c.SetWord(t.ExpandBucket, eb)
		unlock()
	}
	if eb >= uint64(len(o.arr)) {
		c.SetWord(t.Expanding, 0)
		access.SetPtr(c, &t.old, nil)
		return false
	}
	return true
}
