package engine

import (
	"slices"

	"repro/internal/access"
	"repro/internal/fingerprint"
	"repro/internal/item"
)

// GetResult is one key's outcome in a batched multi-get.
type GetResult struct {
	Value []byte
	Flags uint32
	CAS   uint64
	Found bool
}

// MultiGetBatch bounds how many keys share one read-only batch transaction.
// Larger batches amortize begin/validate/commit further but lengthen the
// window a concurrent writer can invalidate; 16 keeps the read set around the
// size of one text-protocol pipeline line.
const MultiGetBatch = 16

// maxRetainedArena bounds the value arena a GetBuf keeps between calls, so one
// large multi-get does not pin its peak for the life of the scratch.
const maxRetainedArena = 64 << 10

// GetBuf is the caller-owned scratch the Into forms of Get and GetMulti fill:
// key hashes, per-shard groups, results, hit and touch marks, and the arena
// the results' Value slices point into. A caller that keeps one GetBuf and
// reuses it makes a hit allocate nothing once the scratch has grown to the
// command's shape. The zero value is ready to use; results and values are
// valid until the next call with the same GetBuf.
type GetBuf struct {
	res   []GetResult
	arena []byte
	hvs   []uint64

	// Cross-shard gather and scatter.
	groups  [][]int
	subKeys [][]byte
	subHvs  []uint64
	subRes  []GetResult

	// One batch transaction's deferred work. The batch holds no reference on
	// these items, so each pointer travels with the CAS id the batch read: by
	// the time the deferred section runs the chunk may hold another entry.
	hits      []*item.Item
	needTouch []bool
	stale     []staleItem
}

// staleItem is an item a batch found expired, to unlink after it commits.
type staleItem struct {
	it  *item.Item
	cas uint64
}

// alloc returns n fresh bytes at the end of the arena. Growing the arena
// moves it; values handed out earlier keep pointing into the old block, which
// stays intact.
func (b *GetBuf) alloc(n int) []byte {
	off := len(b.arena)
	b.arena = slices.Grow(b.arena, n)[:off+n]
	return b.arena[off : off+n : off+n]
}

// Trim drops an arena that one large command grew past maxRetainedArena.
// Callers that hold a GetBuf for long (a connection, a worker) call it when
// they are done with a command's values.
func (b *GetBuf) Trim() {
	if cap(b.arena) > maxRetainedArena {
		b.arena = nil
	}
}

// resize returns s with length n, reallocating only to grow.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// getMulti looks up keys, whose hashes the router already computed to group
// them by shard, and fills out with a result per key, in order; values go to
// b's arena.
//
// On the IT branches (the item critical section is a transaction) keys are
// processed in groups of at most MultiGetBatch, each group as ONE read-only
// transaction: per-key GETs pay one serial-lock round trip, one begin, one
// validate and one commit each, while a batch pays them once for the whole
// group and — on the branches whose get path is otherwise write-free —
// commits on the read-only fast path with zero orec acquisitions. The group
// also gives the memcached multi-get its snapshot isolation: a concurrent SET
// either fully precedes or fully follows the group's validation point.
//
// Lock and IP branches have no cross-key section to share (item stripes are
// per-key), so they fall back to the per-key path.
func (w *shardWorker) getMulti(b *GetBuf, keys [][]byte, hvs []uint64, out []GetResult) {
	if !w.c.cfg.itemTx {
		for i, k := range keys {
			out[i].Value, out[i].Flags, out[i].CAS, out[i].Found = w.get(b, hvs[i], k, false, 0)
		}
		return
	}
	for start := 0; start < len(keys); start += MultiGetBatch {
		end := min(start+MultiGetBatch, len(keys))
		w.getBatch(b, keys[start:end], hvs[start:end], out[start:end])
	}
}

// getBatch runs one bounded group of lookups as a single read-only item
// transaction and handles the deferred write work afterwards.
func (w *shardWorker) getBatch(b *GetBuf, keys [][]byte, hvs []uint64, out []GetResult) {
	now := w.volatileLoad(w.c.CurrentTime)
	flushAt := w.volatileLoad(w.c.flushBefore)

	b.hits = resize(b.hits, len(keys))
	b.needTouch = resize(b.needTouch, len(keys))
	hits, needTouch := b.hits, b.needTouch
	mark := len(b.arena)

	body := func(ctx access.Ctx) {
		// Reset all outputs: a transactional context may retry this closure,
		// and the arena must end up holding the committed attempt's values
		// only.
		for i := range out {
			out[i] = GetResult{}
			hits[i] = nil
			needTouch[i] = false
		}
		b.stale = b.stale[:0]
		b.arena = b.arena[:mark]
		for i, k := range keys {
			it := w.c.tab.Find(ctx, hvs[i], k)
			if it == nil {
				continue
			}
			if w.expired(ctx, it, now, flushAt) {
				// The per-key path unlinks in place; here the unlink is
				// deferred past the batch commit so the batch itself stays
				// read-only. An expired item is a miss either way.
				b.stale = append(b.stale, staleItem{it, ctx.Word(&it.CasID)})
				continue
			}
			// No RefIncr: inside one transaction the refcount round trip is
			// pure overhead (the §5 TxRefOpt observation) and it would
			// upgrade the batch off the read-only fast path. Conflict
			// detection protects the reads; the deferred touch/unlink
			// sections below re-check the item's identity before
			// dereferencing state.
			n := int(ctx.Word(&it.NBytes))
			buf := b.alloc(n)
			ctx.MemcpyOut(buf, it.Buf(), it.DataOff(), n)
			out[i] = GetResult{Value: buf, Flags: it.Flags, CAS: ctx.Word(&it.CasID), Found: true}
			needTouch[i] = now-ctx.Word(&it.Time) >= touchInterval
			hits[i] = it
		}
	}

	// Same unsafe profile as the per-key item_get section — Find reads the
	// volatile expansion flag first, values are copied out with memcpy — plus
	// the read-only hint. Pre-Lib stages will therefore start serial or
	// switch in flight exactly as before; on Lib and later the whole batch
	// commits on the read-only fast path.
	w.section(domains{cache: true}, profile{volatiles: true, volatileFirst: true, libc: true, ro: true, site: "item_get_multi"}, body)

	if w.c.afterBatchCommit != nil {
		w.c.afterBatchCommit()
	}
	for _, st := range b.stale {
		w.reclaimStale(st.it, st.cas)
	}
	for i, it := range hits {
		if it != nil && needTouch[i] {
			w.touchHit(it, out[i].CAS, now)
		}
	}
	// The marks are dead; do not let them keep evicted items reachable.
	clear(hits)
	clear(b.stale)

	w.tstat(func(ctx access.Ctx) {
		ctx.AddWord(w.stats.GetCmds, uint64(len(keys)))
		var h uint64
		for i := range out {
			if out[i].Found {
				h++
			}
		}
		ctx.AddWord(w.stats.GetHits, h)
		ctx.AddWord(w.stats.GetMisses, uint64(len(keys))-h)
	})
	// One disabled-path atomic load for the whole batch, then per-key
	// samples: a multi-get is len(keys) reads in the workload mix.
	if w.c.fp.Load() != nil {
		for i := range keys {
			size := -1
			if out[i].Found {
				size = len(out[i].Value)
			}
			w.fpRecord(fingerprint.OpRead, hvs[i], keys[i], size, out[i].Found)
		}
	}
}

// sameEntry reports whether it still holds the linked entry whose CAS id a
// committed section read. The caller kept the pointer without a reference, so
// the chunk may since have been unlinked, recycled and linked again for
// another key: Linked alone would say yes. CAS ids are never reissued.
func sameEntry(ctx access.Ctx, it *item.Item, cas uint64) bool {
	return it.Linked(ctx) && ctx.Word(&it.CasID) == cas
}

// reclaimStale unlinks an item a batch found expired, unless someone else
// already has.
func (w *shardWorker) reclaimStale(it *item.Item, cas uint64) {
	reclaimed := false
	w.section(domains{cache: true}, profile{volatiles: true, libc: true, site: "do_item_unlink"}, func(cctx access.Ctx) {
		reclaimed = sameEntry(cctx, it, cas)
		if reclaimed {
			w.unlinkLocked(cctx, it)
		}
	})
	if reclaimed {
		w.gstat(func(g access.Ctx) { g.AddWord(w.c.gstats.Expired, 1) })
	}
}

// touchHit is item_update for an item a get read: the occasional cache-lock
// critical section that moves it to the head of its LRU.
func (w *shardWorker) touchHit(it *item.Item, cas uint64, now uint64) {
	w.section(domains{cache: true}, profile{site: "item_update"}, func(ctx access.Ctx) {
		if sameEntry(ctx, it, cas) {
			w.c.lru.Touch(ctx, it, now)
		}
	})
}
