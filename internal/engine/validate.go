package engine

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/item"
)

// Validate cross-checks the cache's internal structures while quiescent (no
// concurrent workers): every LRU entry must be linked and findable in the
// hash table under its own key, counts must agree across the hash table, the
// LRU lists and the stats counters, and every chunk the slab allocator ever
// created must be in exactly one place — linked, or on its class's freelist.
// It returns nil or a description of the first inconsistency.
//
// This is the deep invariant the branch matrix must preserve: the same
// engine state machine run under 14 different synchronization regimes has to
// end in structurally identical states.
func (c *shard) Validate() error {
	a := c.newAgent()
	var err error
	check := func(ctx access.Ctx) {
		err = nil

		// Walk every LRU list: items must be linked, alive in the table, and
		// doubly-linked consistently.
		lruCount := uint64(0)
		classCounts := make(map[int]uint64)
		for cls := 0; cls < c.lru.Classes(); cls++ {
			var prev *item.Item
			for it := c.lru.Head(ctx, cls); it != nil; it = access.Ptr(ctx, &it.Next) {
				lruCount++
				classCounts[cls]++
				if it.Class != cls {
					err = fmt.Errorf("engine: item in LRU class %d has Class=%d", cls, it.Class)
					return
				}
				if ctx.Word(&it.ItFlags) != item.FlagLinked {
					err = fmt.Errorf("engine: LRU item of class %d has flags %#x, want linked only", cls, ctx.Word(&it.ItFlags))
					return
				}
				if got := access.Ptr(ctx, &it.Prev); got != prev {
					err = fmt.Errorf("engine: LRU back-link broken in class %d", cls)
					return
				}
				key := make([]byte, it.KeyLen)
				ctx.MemcpyOut(key, it.Buf(), it.KeyOff(), it.KeyLen)
				if found := c.tab.Find(ctx, it.Hash, key); found != it {
					err = fmt.Errorf("engine: LRU item %q not findable in hash table", key)
					return
				}
				if rc := ctx.Volatile(&it.Refcount); rc < 1 {
					err = fmt.Errorf("engine: linked item %q has refcount %d", key, rc)
					return
				}
				prev = it
			}
			if got := c.lru.Len(ctx, cls); got != classCounts[cls] {
				err = fmt.Errorf("engine: LRU class %d size %d, walk found %d", cls, got, classCounts[cls])
				return
			}
		}

		// Hash table population must equal the LRU population and the stats
		// counter.
		if hashItems := c.tab.Items(ctx); hashItems != lruCount {
			err = fmt.Errorf("engine: hash_items=%d but LRU holds %d", hashItems, lruCount)
			return
		}
		if curr := ctx.Word(c.gstats.CurrItems); curr != lruCount {
			err = fmt.Errorf("engine: curr_items=%d but LRU holds %d", curr, lruCount)
			return
		}

		// Chunk ownership, per class: the freelist holds exactly Free chunks,
		// each flagged slabbed and nothing else, none of them twice (a double
		// free closes the list into a cycle or makes the walk outrun Free), and
		// free plus linked chunks are all the chunks ever created — one missing
		// is a leak, one extra was freed while still linked.
		for cls := 0; cls < c.slabs.NumClasses(); cls++ {
			head, free := c.slabs.FreeList(ctx, cls)
			walked := uint64(0)
			for it := head; it != nil; it = access.Ptr(ctx, &it.Next) {
				if walked++; walked > free {
					err = fmt.Errorf("engine: class %d freelist is longer than its count %d (chunk freed twice?)", cls, free)
					return
				}
				if it.Class != cls || ctx.Word(&it.ItFlags) != item.FlagSlabbed {
					err = fmt.Errorf("engine: class %d freelist holds a chunk of class %d with flags %#x", cls, it.Class, ctx.Word(&it.ItFlags))
					return
				}
			}
			if walked != free {
				err = fmt.Errorf("engine: class %d freelist holds %d chunks, count says %d", cls, walked, free)
				return
			}
			if created := c.slabs.Created(ctx, cls); free+classCounts[cls] != created {
				err = fmt.Errorf("engine: class %d ownership: %d chunks created, %d free + %d linked (pages=%d)",
					cls, created, free, classCounts[cls], c.slabs.PagesOf(ctx, cls))
				return
			}
		}
	}

	a.section(domains{cache: true, slabs: true, stats: true}, profile{volatiles: true, libc: true}, check)
	return err
}

// Expanding reports whether a hash-table expansion is in flight. The torture
// harness polls it to let migration finish before its invariant checks.
func (w *shardWorker) Expanding() bool {
	var exp bool
	w.section(domains{cache: true}, profile{volatiles: true}, func(ctx access.Ctx) {
		exp = w.c.tab.IsExpanding(ctx)
	})
	return exp
}

// ValidateQuiescent is Validate plus the checks that only hold once every
// worker has returned its references: each linked item's refcount must be
// exactly 1 (the link reference — anything higher is a leaked hold, the
// balanced-refcount invariant the torture harness asserts), and slab memory
// must be within its limit. Call only with no commands in flight.
func (c *shard) ValidateQuiescent() error {
	if err := c.Validate(); err != nil {
		return err
	}
	a := c.newAgent()
	var err error
	check := func(ctx access.Ctx) {
		err = nil
		for cls := 0; cls < c.lru.Classes(); cls++ {
			for it := c.lru.Head(ctx, cls); it != nil; it = access.Ptr(ctx, &it.Next) {
				if rc := ctx.Volatile(&it.Refcount); rc != 1 {
					key := make([]byte, it.KeyLen)
					ctx.MemcpyOut(key, it.Buf(), it.KeyOff(), it.KeyLen)
					err = fmt.Errorf("engine: quiescent item %q has refcount %d, want 1", key, rc)
					return
				}
			}
		}
		if got := c.slabs.Allocated(ctx); got > c.conf.MemLimit {
			err = fmt.Errorf("engine: slab memory %d exceeds limit %d", got, c.conf.MemLimit)
			return
		}
	}
	a.section(domains{cache: true, slabs: true}, profile{volatiles: true, libc: true}, check)
	return err
}
