package engine

import (
	"sync"

	"repro/internal/access"
	"repro/internal/assoc"
	"repro/internal/item"
	"repro/internal/mcstats"
	"repro/internal/slab"
	"repro/internal/stm"
)

// StoreMode selects the storage-command semantics.
type StoreMode int

const (
	ModeSet StoreMode = iota
	ModeAdd
	ModeReplace
	ModeAppend
	ModePrepend
	ModeCAS
)

// StoreResult is the outcome of a storage command.
type StoreResult int

const (
	Stored StoreResult = iota
	NotStored
	Exists   // CAS mismatch
	NotFound // CAS/append on missing key
	TooLarge
	OutOfMemory
)

func (r StoreResult) String() string {
	switch r {
	case Stored:
		return "STORED"
	case NotStored:
		return "NOT_STORED"
	case Exists:
		return "EXISTS"
	case NotFound:
		return "NOT_FOUND"
	case TooLarge:
		return "SERVER_ERROR object too large for cache"
	case OutOfMemory:
		return "SERVER_ERROR out of memory storing object"
	}
	return "SERVER_ERROR unknown store result"
}

// DeltaResult is the outcome of incr/decr.
type DeltaResult int

const (
	DeltaOK DeltaResult = iota
	DeltaNotFound
	DeltaNonNumeric
)

// touchInterval is the LRU-bump threshold in seconds: a hit moves its item to
// the head of the LRU only when the last bump is at least this old. It is
// memcached 1.4.15's ITEM_UPDATE_INTERVAL. Tests reach the bump path by
// moving the clock with SetTime.
const touchInterval = 60

// Worker is one worker thread's handle on the cache: it owns a TM context, a
// per-thread statistics block, and the per-thread stats lock.
type shardWorker struct {
	agent
	stats *mcstats.Thread
	// statsMu is the per-thread stats lock of lock branches. Transactional
	// branches replaced these uncontended locks with transactions, because
	// any mutex operation is unsafe inside a transaction (§3.1).
	statsMu sync.Mutex
}

// NewWorker registers a new worker.
func (c *shard) newWorker() *shardWorker {
	w := &shardWorker{stats: mcstats.NewThread()}
	w.agent = *c.newAgent()
	c.mu.Lock()
	c.tblocks = append(c.tblocks, w.stats)
	c.mu.Unlock()
	return w
}

// tstat adds one command's counts to this worker's statistics block, after
// the command's item section: a per-thread-lock critical section in lock
// branches, a small atomic transaction on the paper's transactional
// structure. On fused branches the block is plain atomics that only this
// worker increments, so the counts are a direct add — or, when the command
// ran inside a transaction that stays open (a wire transaction's apply
// phase), an onCommit handler, so that an aborted attempt counts nothing.
func (w *shardWorker) tstat(d mcstats.Aggregated) {
	switch {
	case !w.c.cfg.tm:
		w.statsMu.Lock()
		w.stats.Add(w.dctx, d)
		w.statsMu.Unlock()
	case w.c.fused:
		if tx := w.openTx(); tx != nil {
			tx.OnCommit(func() { w.stats.Add(w.dctx, d) })
			return
		}
		w.stats.Add(w.dctx, d)
	default:
		w.section(domains{}, profile{}, func(ctx access.Ctx) { w.stats.Add(ctx, d) })
	}
}

// allBlocks runs fn over the shard's per-thread statistics blocks as a whole
// (stats reset, the aggregate read): one transaction where the blocks are
// transactional, direct where they are not (lock branches, fused branches).
func (w *shardWorker) allBlocks(fn func(ctx access.Ctx, blocks []*mcstats.Thread)) {
	w.c.mu.Lock()
	blocks := append([]*mcstats.Thread(nil), w.c.tblocks...)
	w.c.mu.Unlock()
	if w.c.fused {
		fn(w.dctx, blocks)
		return
	}
	w.section(domains{}, profile{}, func(ctx access.Ctx) { fn(ctx, blocks) })
}

// CacheNow reads the volatile clock the way an operation would (a lock incr
// style read, or a mini-transaction after stage Max).
func (w *shardWorker) CacheNow() uint64 { return w.volatileLoad(w.c.CurrentTime) }

// ambientClock returns current_time and the flush_all watermark as a command
// reads them before its item section: the two volatile loads of memcached's
// command path, mini-transactions after stage Max. On fused branches it
// returns zeros and the item section reads both itself (clock), so they cost
// no transaction of their own.
func (w *shardWorker) ambientClock() (now, flushAt uint64) {
	if w.c.fused {
		return 0, 0
	}
	return w.volatileLoad(w.c.CurrentTime), w.volatileLoad(w.c.flushBefore)
}

// clock reads current_time and the flush_all watermark through ctx, inside
// the section that uses them.
func (w *shardWorker) clock(ctx access.Ctx) (now, flushAt uint64) {
	return ctx.Volatile(w.c.CurrentTime), ctx.Volatile(w.c.flushBefore)
}

// expired applies both the item's exptime and the flush_all watermark.
func (w *shardWorker) expired(ctx access.Ctx, it *item.Item, now, flushAt uint64) bool {
	if it.Expired(ctx, now) {
		return true
	}
	return flushAt != 0 && ctx.Word(&it.Time) < flushAt
}

// releaseRef drops a reference taken by this worker outside any critical
// section (memcached's item_remove): a lock incr before stage Max, a
// mini-transaction after. The final reference frees the chunk.
func (w *shardWorker) releaseRef(it *item.Item) {
	if w.volatileAdd(&it.Refcount, ^uint64(0)) == 0 {
		w.freeChunk(it)
	}
}

// freeChunk returns an unlinked, unreferenced chunk to its slab class: the
// slabs domain, nested when called from inside a critical section (one of the
// lock-inside-lock patterns of §3.1).
func (w *shardWorker) freeChunk(it *item.Item) {
	w.section(domains{slabs: true}, profile{}, func(ctx access.Ctx) {
		w.c.slabs.Release(ctx, it)
	})
}

// dropLocked gives up a reference from inside a critical section; the last
// one frees the chunk.
func (w *shardWorker) dropLocked(ctx access.Ctx, it *item.Item) {
	if ctx.AddVolatile(&it.Refcount, ^uint64(0)) == 0 {
		w.freeChunk(it)
	}
}

// unlinkLocked removes a linked item from the hash table, LRU and global
// stats. Caller holds the item's stripe (lock/IP) or runs inside the item
// transaction (IT), plus the cache-lock domain. It drops the hash table's
// reference.
func (w *shardWorker) unlinkLocked(ctx access.Ctx, it *item.Item) {
	if !it.Linked(ctx) {
		return
	}
	w.c.tab.RemoveItem(ctx, it)
	w.c.lru.Unlink(ctx, it)
	it.SetLinked(ctx, false)
	size := uint64(it.TotalBytes(ctx))
	w.gstat(func(g access.Ctx) {
		g.AddWord(w.c.gstats.CurrItems, ^uint64(0))
		g.AddWord(w.c.gstats.CurrBytes, ^(size - 1))
	})
	w.dropLocked(ctx, it)
}

// ---------------------------------------------------------------------------
// Get

// get looks up key and returns its value, copied to the end of b's arena. It
// takes the key's hash from the caller: the sharded router already computed
// it to pick this shard, and hashing is the one per-op cost that would
// otherwise double under sharding. touch makes it the gat command: fetch and
// update the expiry in one item critical section.
//
// On fused branches a get is that one section and nothing else: it reads the
// clock inside, takes no reference (the copy-out runs in the transaction's
// snapshot, which commit revalidates), and leaves an expired entry for
// reclaimStale after the commit, so a plain get commits read-only.
func (w *shardWorker) get(b *GetBuf, hv uint64, key []byte, touch bool, exptime uint64) (val []byte, flags uint32, cas uint64, found bool) {
	fused := w.c.fused
	now, flushAt := w.ambientClock()

	var hit *item.Item
	var needTouch bool
	var stale staleItem
	mark := len(b.arena)

	body := func(ctx access.Ctx) {
		// Reset outputs: a transactional context may retry this closure, and
		// a value an aborted attempt copied out must not stay in the arena.
		val, flags, cas, found = nil, 0, 0, false
		hit, needTouch, stale = nil, false, staleItem{}
		b.arena = b.arena[:mark]
		if fused {
			now, flushAt = w.clock(ctx)
		}

		it := w.c.tab.Find(ctx, hv, key)
		if it == nil {
			return
		}
		if w.expired(ctx, it, now, flushAt) {
			if fused {
				stale = staleItem{it, ctx.Word(&it.CasID)}
				return
			}
			w.section(domains{cache: true}, profile{volatiles: true, libc: true, site: "do_item_unlink"}, func(cctx access.Ctx) {
				w.unlinkLocked(cctx, it)
			})
			w.gstat(func(g access.Ctx) { g.AddWord(w.c.gstats.Expired, 1) })
			return
		}
		if !fused {
			if w.c.cfg.itemTx {
				it.RefIncr(ctx)
			} else {
				// Under an item lock ctx is direct, but the matching decrement
				// (releaseRef) runs after the lock is dropped — as a
				// mini-transaction once volatiles are transactional. A direct
				// add here would bypass that transaction's conflict detection:
				// it reads r, we add 1, it stores r-1, and the reference is gone.
				w.volatileAdd(&it.Refcount, 1)
			}
		}
		if touch {
			ctx.SetWord(&it.Exptime, exptime)
		}
		n := int(ctx.Word(&it.NBytes))
		val = b.alloc(n)
		ctx.MemcpyOut(val, it.Buf(), it.DataOff(), n)
		flags = it.Flags
		cas = ctx.Word(&it.CasID)
		needTouch = now-ctx.Word(&it.Time) >= touchInterval
		hit = it
		found = true
	}

	if w.c.cfg.itemTx {
		// IT: the item critical section is one transaction (Figure 1b). Its
		// first operation is a Find, which reads the volatile expansion flag,
		// and it calls memcmp/memcpy — the unsafe profile pre-Max/pre-Lib.
		// Fused, a get that does not touch writes nothing.
		w.section(domains{cache: true}, profile{volatiles: true, volatileFirst: true, libc: true, ro: fused && !touch, site: "item_get"}, body)
	} else {
		w.itemLock(hv)
		body(w.dctx)
		w.itemUnlock(hv)
	}

	if stale.it != nil {
		w.reclaimStale(stale.it, stale.cas)
	}
	if hit != nil {
		if needTouch {
			w.touchHit(hit, cas, now)
		}
		if !fused {
			w.releaseRef(hit)
		}
	}

	d := mcstats.Aggregated{GetCmds: 1, GetMisses: 1}
	if found {
		d.GetHits, d.GetMisses = 1, 0
	}
	w.tstat(d)
	return val, flags, cas, found
}

// ---------------------------------------------------------------------------
// Storage commands

// Set stores key=value unconditionally.
func (w *shardWorker) Set(key []byte, flags uint32, exptime uint64, value []byte) StoreResult {
	return w.store(ModeSet, assoc.Hash(key), key, flags, exptime, value, 0)
}

// Add stores only if the key is absent.
func (w *shardWorker) Add(key []byte, flags uint32, exptime uint64, value []byte) StoreResult {
	return w.store(ModeAdd, assoc.Hash(key), key, flags, exptime, value, 0)
}

// Replace stores only if the key is present.
func (w *shardWorker) Replace(key []byte, flags uint32, exptime uint64, value []byte) StoreResult {
	return w.store(ModeReplace, assoc.Hash(key), key, flags, exptime, value, 0)
}

// Append appends value to an existing item.
func (w *shardWorker) Append(key []byte, value []byte) StoreResult {
	return w.store(ModeAppend, assoc.Hash(key), key, 0, 0, value, 0)
}

// Prepend prepends value to an existing item.
func (w *shardWorker) Prepend(key []byte, value []byte) StoreResult {
	return w.store(ModePrepend, assoc.Hash(key), key, 0, 0, value, 0)
}

// CAS stores only if the item's CAS id still equals casUnique.
func (w *shardWorker) CAS(key []byte, flags uint32, exptime uint64, value []byte, casUnique uint64) StoreResult {
	return w.store(ModeCAS, assoc.Hash(key), key, flags, exptime, value, casUnique)
}

// store is memcached's storage path in memcached's shape: do_item_alloc as a
// critical section of its own (process_update_command allocates before the
// value arrives), the key and value copied into the chunk with no section
// open, then do_store_item under the item lock. Append and prepend learn the
// size of what they store only from the old item, so they allocate inside
// do_store_item, as memcached does.
func (w *shardWorker) store(mode StoreMode, hv uint64, key []byte, flags uint32, exptime uint64, value []byte, casUnique uint64) StoreResult {
	now, flushAt := w.ambientClock()
	res := NotStored
	concat := mode == ModeAppend || mode == ModePrepend

	var newIt *item.Item
	if !concat {
		newIt, res = w.allocItem(key, hv, flags, exptime, value)
	}

	body := func(ictx access.Ctx) {
		res = NotStored
		if w.c.fused {
			now, flushAt = w.clock(ictx)
		}
		old := w.c.tab.Find(ictx, hv, key)
		if old != nil && w.expired(ictx, old, now, flushAt) {
			w.section(domains{cache: true}, profile{volatiles: true, libc: true, site: "do_item_unlink"}, func(cctx access.Ctx) {
				w.unlinkLocked(cctx, old)
			})
			w.gstat(func(g access.Ctx) { g.AddWord(w.c.gstats.Expired, 1) })
			old = nil
		}

		it := newIt
		switch {
		case mode == ModeAdd && old != nil, mode == ModeReplace && old == nil, concat && old == nil:
			// NotStored
		case mode == ModeCAS && old == nil:
			res = NotFound
		case mode == ModeCAS && ictx.Word(&old.CasID) != casUnique:
			res = Exists
		case concat:
			// Assemble the new value from the old item's data — the memcpy
			// from shared memory that needs tm_memcpy (§3.4).
			oldN := int(ictx.Word(&old.NBytes))
			buf := make([]byte, oldN+len(value))
			if mode == ModeAppend {
				ictx.MemcpyOut(buf[:oldN], old.Buf(), old.DataOff(), oldN)
				copy(buf[oldN:], value)
			} else {
				copy(buf, value)
				ictx.MemcpyOut(buf[len(value):], old.Buf(), old.DataOff(), oldN)
			}
			if it, res = w.allocItem(key, hv, old.Flags, ictx.Word(&old.Exptime), buf); it != nil {
				w.linkItem(old, it)
				res = Stored
			}
			return
		default:
			w.linkItem(old, it)
			res = Stored
			return
		}
		// The command is refused: the chunk allocated for it goes back.
		if it != nil {
			w.dropLocked(ictx, it)
		}
	}

	if newIt != nil || concat {
		if w.c.cfg.itemTx {
			w.section(domains{cache: true, slabs: true}, profile{volatiles: true, volatileFirst: true, libc: true, io: true, site: "do_store_item"}, body)
		} else {
			w.itemLock(hv)
			body(w.dctx)
			w.itemUnlock(hv)
		}
	}

	d := mcstats.Aggregated{SetCmds: 1}
	if mode == ModeCAS {
		switch res {
		case Stored:
			d.CasHits = 1
		case NotFound:
			d.CasMiss = 1
		case Exists:
			d.CasBadval = 1
		}
	}
	w.tstat(d)
	return res
}

// allocItem is do_item_alloc: the cache+slabs critical section whose first
// operation reads the volatile current_time (and the flush_all watermark,
// which decides whether an LRU-tail victim is expired) and which builds the item suffix
// with snprintf — relaxed and start-serial pre-Max, in-flight serial pre-Lib
// (§3.3). On memory pressure it evicts from the LRU tail. It returns the
// chunk filled with the entry and holding the creator's reference, or nil
// with TooLarge or OutOfMemory.
//
// Everything the section itself stores into the chunk goes through its
// context: the chunk may be the one it just evicted, which transactions that
// began earlier are still reading. Key, value and the plain fields are stored
// directly, by a thread that owns the chunk privately: after the section has
// committed and, with that, waited out every transaction older than the commit
// (the privatization-safety quiescence of stm, here the grace period of chunk
// reuse). When the section is nested in a transaction that stays open there
// is no such point, so it takes a chunk that was never shared (AllocNew).
func (w *shardWorker) allocItem(key []byte, hv uint64, flags uint32, exptime uint64, val []byte) (*item.Item, StoreResult) {
	cls, err := w.c.slabs.ClassFor(item.SizeFor(len(key), len(val)))
	if err != nil {
		return nil, TooLarge
	}
	alloc := w.c.slabs.Alloc
	if w.openTx() != nil {
		alloc = w.c.allocInTx
	}
	var it *item.Item
	var suffixLen int
	w.section(domains{cache: true, slabs: true}, profile{volatiles: true, volatileFirst: true, libc: true, io: true, site: "do_item_alloc"}, func(ctx access.Ctx) {
		allocNow, flushAt := w.clock(ctx)
		if it = alloc(ctx, cls); it == nil {
			if !w.evictOne(ctx, cls, allocNow, flushAt) {
				return
			}
			if it = alloc(ctx, cls); it == nil {
				return
			}
		}
		if allocNow < flushAt {
			allocNow = flushAt // keep a same-second flush_all from eating the new item
		}
		suffixLen = it.Reset(ctx, len(key), flags, exptime, len(val), allocNow)
	})
	if it == nil {
		return nil, OutOfMemory
	}
	it.Fill(w.dctx, key, hv, flags, suffixLen, val)
	return it, NotStored
}

// linkItem is do_item_link / do_store_item: the cache-lock critical section
// that replaces old (if any) with newIt, with global stats via the stats lock
// (the Figure 3 rapid re-locking) and the hash-expansion signal via sem_post
// (unsafe until stage onCommit).
func (w *shardWorker) linkItem(old, newIt *item.Item) {
	w.section(domains{cache: true}, profile{volatiles: true, libc: true, io: true, site: "do_item_link"}, func(ctx access.Ctx) {
		if old != nil {
			w.unlinkLocked(ctx, old)
		}
		w.c.tab.Insert(ctx, newIt)
		w.c.lru.Link(ctx, newIt)
		newIt.SetLinked(ctx, true)
		ctx.SetWord(&newIt.CasID, ctx.AddWord(w.c.casCounter, 1))
		size := uint64(newIt.TotalBytes(ctx))
		w.gstat(func(g access.Ctx) { g.AddWord(w.c.gstats.TotalItems, 1) })
		w.gstat(func(g access.Ctx) {
			g.AddWord(w.c.gstats.CurrItems, 1)
			g.AddWord(w.c.gstats.CurrBytes, size)
		})
		if w.c.tab.NeedExpand(ctx) {
			w.c.signalHash(ctx)
		}
	})
}

// evictOne frees one chunk in class cls by evicting (or reclaiming, if
// expired) an unreferenced LRU-tail item. Runs inside the alloc critical
// section; in the IP and lock branches each candidate's item lock is
// trylocked from within (Figure 1a) and busy candidates are skipped — the
// save_for_later path.
func (w *shardWorker) evictOne(ctx access.Ctx, cls int, now, flushAt uint64) bool {
	it := w.c.lru.Tail(ctx, cls)
	for tries := 0; it != nil && tries < 5; tries++ {
		if ctx.Volatile(&it.Refcount) > 1 {
			it = access.Ptr(ctx, &it.Prev)
			continue
		}
		if !w.victimTryLock(ctx, it.Hash) {
			it = access.Ptr(ctx, &it.Prev) // save for later
			continue
		}
		wasExpired := w.expired(ctx, it, now, flushAt)
		w.unlinkLocked(ctx, it)
		w.victimUnlock(ctx, it.Hash)
		if wasExpired {
			w.gstat(func(g access.Ctx) { g.AddWord(w.c.gstats.Expired, 1) })
		} else {
			// The Figure 3 pattern: a second, separate stats-lock acquisition
			// right after the first.
			w.gstat(func(g access.Ctx) { g.AddWord(w.c.gstats.Evictions, 1) })
			ctx.Fprintf(w.c.log(), "evicted item to make room")
			if w.c.conf.Automove {
				w.c.signalSlab(ctx)
			}
		}
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Delete, Incr/Decr, Touch, FlushAll

// Delete removes key; reports whether it existed.
func (w *shardWorker) Delete(key []byte) bool {
	return w.del(assoc.Hash(key), key)
}

func (w *shardWorker) del(hv uint64, key []byte) bool {
	now, flushAt := w.ambientClock()
	found := false

	body := func(ictx access.Ctx) {
		found = false
		if w.c.fused {
			now, flushAt = w.clock(ictx)
		}
		it := w.c.tab.Find(ictx, hv, key)
		if it == nil {
			return
		}
		live := !w.expired(ictx, it, now, flushAt)
		w.section(domains{cache: true}, profile{volatiles: true, libc: true, site: "do_item_unlink"}, func(ctx access.Ctx) {
			w.unlinkLocked(ctx, it)
		})
		found = live
	}

	if w.c.cfg.itemTx {
		w.section(domains{cache: true}, profile{volatiles: true, volatileFirst: true, libc: true, site: "item_delete"}, body)
	} else {
		w.itemLock(hv)
		body(w.dctx)
		w.itemUnlock(hv)
	}

	if found {
		w.tstat(mcstats.Aggregated{DeleteHits: 1})
	} else {
		w.tstat(mcstats.Aggregated{DeleteMiss: 1})
	}
	return found
}

// Incr adds delta to a decimal value in place (incr command); Decr subtracts,
// saturating at zero. The value parse and re-format are the strtoull/snprintf
// libc calls of §3.4.
func (w *shardWorker) Incr(key []byte, delta uint64) (uint64, DeltaResult) {
	return w.delta(assoc.Hash(key), key, delta, false)
}

// Decr subtracts delta, saturating at zero.
func (w *shardWorker) Decr(key []byte, delta uint64) (uint64, DeltaResult) {
	return w.delta(assoc.Hash(key), key, delta, true)
}

func (w *shardWorker) delta(hv uint64, key []byte, delta uint64, decr bool) (uint64, DeltaResult) {
	now, flushAt := w.ambientClock()
	var out uint64
	res := DeltaNotFound

	body := func(ictx access.Ctx) {
		out, res = 0, DeltaNotFound
		if w.c.fused {
			now, flushAt = w.clock(ictx)
		}
		it := w.c.tab.Find(ictx, hv, key)
		if it == nil || w.expired(ictx, it, now, flushAt) {
			return
		}
		n := int(ictx.Word(&it.NBytes))
		v, used := ictx.Strtoull(it.Buf(), it.DataOff(), n)
		if used == 0 || used != n {
			res = DeltaNonNumeric
			return
		}
		if decr {
			if delta > v {
				v = 0
			} else {
				v -= delta
			}
		} else {
			v += delta
		}
		// Re-format in place when the new text fits the chunk (memcached
		// rewrites the value buffer); otherwise allocate a replacement item
		// through the normal alloc/link path.
		if digits := decimalDigits(v); digits <= it.CapBytes {
			written := ictx.FormatUint(it.Buf(), it.DataOff(), v)
			ictx.SetWord(&it.NBytes, uint64(written))
			w.section(domains{cache: true}, profile{}, func(ctx access.Ctx) {
				ctx.SetWord(&it.CasID, ctx.AddWord(w.c.casCounter, 1))
			})
		} else {
			var text [20]byte
			repl, _ := w.allocItem(key, hv, it.Flags, ictx.Word(&it.Exptime), appendUint(text[:0], v))
			if repl == nil {
				return
			}
			w.linkItem(it, repl)
		}
		out, res = v, DeltaOK
	}

	if w.c.cfg.itemTx {
		// io: the grow path links a replacement item, which may signal the
		// hash maintainer.
		w.section(domains{cache: true, slabs: true}, profile{volatiles: true, volatileFirst: true, libc: true, io: true, site: "add_delta"}, body)
	} else {
		w.itemLock(hv)
		body(w.dctx)
		w.itemUnlock(hv)
	}

	if res == DeltaOK {
		w.tstat(mcstats.Aggregated{IncrHits: 1})
	} else {
		w.tstat(mcstats.Aggregated{IncrMiss: 1})
	}
	return out, res
}

// decimalDigits returns the decimal text length of v.
func decimalDigits(v uint64) int {
	n := 1
	for v >= 10 {
		v /= 10
		n++
	}
	return n
}

func appendUint(dst []byte, v uint64) []byte {
	if v == 0 {
		return append(dst, '0')
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return append(dst, buf[i:]...)
}

// Touch updates an item's expiry time; reports whether it existed.
func (w *shardWorker) Touch(key []byte, exptime uint64) bool {
	return w.touch(assoc.Hash(key), key, exptime)
}

func (w *shardWorker) touch(hv uint64, key []byte, exptime uint64) bool {
	now, flushAt := w.ambientClock()
	found := false
	body := func(ictx access.Ctx) {
		found = false
		if w.c.fused {
			now, flushAt = w.clock(ictx)
		}
		it := w.c.tab.Find(ictx, hv, key)
		if it == nil || w.expired(ictx, it, now, flushAt) {
			return
		}
		ictx.SetWord(&it.Exptime, exptime)
		found = true
	}
	if w.c.cfg.itemTx {
		w.section(domains{cache: true}, profile{volatiles: true, volatileFirst: true, libc: true, site: "item_touch"}, body)
	} else {
		w.itemLock(hv)
		body(w.dctx)
		w.itemUnlock(hv)
	}
	w.tstat(mcstats.Aggregated{TouchCmds: 1})
	return found
}

// FlushAll marks everything stored before now as expired (lazy reclamation,
// via the flush watermark volatile).
func (w *shardWorker) FlushAll() {
	now := w.volatileLoad(w.c.CurrentTime)
	w.volatileStore(w.c.flushBefore, now+1)
}

// ---------------------------------------------------------------------------
// Stats

// Snapshot is the "stats" command payload.
type Snapshot struct {
	mcstats.Aggregated
	CurrItems   uint64
	TotalItems  uint64
	CurrBytes   uint64
	Evictions   uint64
	Expired     uint64
	Reassigned  uint64
	HashExpands uint64
	HashItems   uint64
	HashBuckets uint64
	SlabBytes   uint64
	// Wire-transaction counters (tx_commits / tx_conflicts in the stats
	// surface), attributed to the lowest shard a transaction touched.
	TxCommits   uint64
	TxConflicts uint64
	STM         stm.Snapshot
}

// ResetStats zeroes this shard's command counters: every per-thread block
// registered on the shard and the shard's global event counters; gauges
// (curr_items, bytes) survive. The shared observer is NOT touched here — it
// spans all shards, so the router resets it exactly once (resetting it per
// shard would wipe other shards' post-reset events, and its lifecycle is
// independent of any one runtime's tracing state).
func (w *shardWorker) ResetStats() {
	w.allBlocks(func(ctx access.Ctx, blocks []*mcstats.Thread) {
		for _, b := range blocks {
			b.Reset(ctx)
		}
	})
	w.gstat(func(g access.Ctx) {
		g.SetWord(w.c.gstats.Evictions, 0)
		g.SetWord(w.c.gstats.Expired, 0)
		g.SetWord(w.c.gstats.TotalItems, 0)
		g.SetWord(w.c.gstats.Reassigned, 0)
		g.SetWord(w.c.gstats.HashExpands, 0)
		// Gauges (CurrItems, CurrBytes) survive reset, as in memcached.
	})
	// Wire-transaction counters live on the shard (each shard's worker clears
	// exactly its own shard's, so the router's per-shard reset loop clears
	// each exactly once).
	w.c.txCommits.Store(0)
	w.c.txConflicts.Store(0)
	if w.c.rt != nil {
		w.c.rt.ResetStats()
	}
}

// SlabClassStat is one row of "stats slabs".
type SlabClassStat struct {
	Class      int
	ChunkSize  int
	Pages      uint64
	FreeChunks uint64
	UsedChunks uint64
}

// SlabStats reports per-class slab allocator detail (the "stats slabs"
// command), read under the slabs lock domain.
func (w *shardWorker) SlabStats() []SlabClassStat {
	var out []SlabClassStat
	w.section(domains{slabs: true}, profile{}, func(ctx access.Ctx) {
		out = out[:0]
		for cls := 0; cls < w.c.slabs.NumClasses(); cls++ {
			pages := w.c.slabs.PagesOf(ctx, cls)
			if pages == 0 {
				continue
			}
			free := w.c.slabs.FreeChunks(ctx, cls)
			perPage := uint64(slab.PageSize / w.c.slabs.ChunkSize(cls))
			out = append(out, SlabClassStat{
				Class:      cls,
				ChunkSize:  w.c.slabs.ChunkSize(cls),
				Pages:      pages,
				FreeChunks: free,
				UsedChunks: pages*perPage - free,
			})
		}
	})
	return out
}

// Stats aggregates the per-thread blocks (see allBlocks) and reads the global
// counters under the stats lock.
func (w *shardWorker) Stats() Snapshot {
	var s Snapshot
	w.allBlocks(func(ctx access.Ctx, blocks []*mcstats.Thread) {
		s.Aggregated = mcstats.Aggregate(ctx, blocks)
	})
	w.section(domains{cache: true, stats: true}, profile{volatiles: true}, func(ctx access.Ctx) {
		s.CurrItems = ctx.Word(w.c.gstats.CurrItems)
		s.TotalItems = ctx.Word(w.c.gstats.TotalItems)
		s.CurrBytes = ctx.Word(w.c.gstats.CurrBytes)
		s.Evictions = ctx.Word(w.c.gstats.Evictions)
		s.Expired = ctx.Word(w.c.gstats.Expired)
		s.Reassigned = ctx.Word(w.c.gstats.Reassigned)
		s.HashExpands = ctx.Word(w.c.gstats.HashExpands)
		s.HashItems = w.c.tab.Items(ctx)
		s.HashBuckets = w.c.tab.Size(ctx)
	})
	w.section(domains{slabs: true}, profile{}, func(ctx access.Ctx) {
		s.SlabBytes = w.c.slabs.Allocated(ctx)
	})
	s.TxCommits = w.c.txCommits.Load()
	s.TxConflicts = w.c.txConflicts.Load()
	if w.c.rt != nil {
		s.STM = w.c.rt.Stats()
	}
	return s
}
