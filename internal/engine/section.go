package engine

import (
	"runtime"

	"repro/internal/access"
	"repro/internal/stm"
	"repro/internal/tm"
)

// domains names the lock domains a critical section needs, in memcached's
// acquisition order: item locks (handled separately, always first), then
// cache, slabs, stats.
type domains struct {
	cache bool
	slabs bool
	stats bool
}

// profile is the static unsafe-operation profile of a critical section — what
// GCC's front end would infer from the source. It decides, per branch stage,
// whether the section can be an atomic transaction, must be relaxed, or must
// begin serially.
type profile struct {
	// volatiles: the section reads or writes a volatile / lock incr location
	// on some path (current_time, refcounts, maintenance flags).
	volatiles bool
	// volatileFirst: a volatile access is the first operation on every path,
	// so before stage Max the transaction begins in serial mode rather than
	// paying for instrumentation up to the inevitable switch ("Start Serial").
	volatileFirst bool
	// libc: the section calls memcmp/memcpy/strtoull/snprintf on some path.
	libc bool
	// io: the section may fprintf or sem_post on some path.
	io bool
	// ro: the section does not write on its expected hot path, so attempt the
	// read-only fast-path commit; the first write barrier upgrades cleanly to
	// the normal path (batched multi-get is the motivating user).
	ro bool
	// site names the source-level critical section for serialization-cause
	// profiling (§6's execinfo-style attribution).
	site string
}

// agent is an execution principal: one worker or one maintenance thread. It
// tracks which domain locks it holds (lock branches allow nested sections)
// and owns the TM context (transactional branches).
type agent struct {
	c    *shard
	tctx *stm.Thread // nil for lock branches
	dctx access.DirectCtx
	// txc is the transactional context every section of this agent runs
	// under, handed out by pointer so that entering a section allocates
	// nothing. Nested sections flatten into one transaction, so they share
	// it; only its T changes, at each attempt.
	txc access.TxCtx

	heldCache bool
	heldSlabs bool
	heldStats bool
}

// section runs fn as one critical section over the given domains.
//
// Lock branches acquire the missing domain mutexes in order and pass a direct
// context. Transactional branches run fn as a transaction whose kind follows
// the paper's performance model: atomic when the stage profile has made every
// operation in p safe; relaxed otherwise; beginning serial when a volatile
// access starts every path (pre-Max). Nested sections flatten into the
// enclosing transaction, exactly as nested critical sections flatten when
// their locks are replaced by transactions.
func (a *agent) section(d domains, p profile, fn func(access.Ctx)) {
	if !a.c.cfg.tm {
		gotCache := d.cache && !a.heldCache
		gotSlabs := d.slabs && !a.heldSlabs
		gotStats := d.stats && !a.heldStats
		if gotCache {
			a.c.cacheMu.Lock()
			a.heldCache = true
		}
		if gotSlabs {
			a.c.slabsMu.Lock()
			a.heldSlabs = true
		}
		if gotStats {
			a.c.statsMu.Lock()
			a.heldStats = true
		}
		fn(a.dctx)
		if gotStats {
			a.heldStats = false
			a.c.statsMu.Unlock()
		}
		if gotSlabs {
			a.heldSlabs = false
			a.c.slabsMu.Unlock()
		}
		if gotCache {
			a.heldCache = false
			a.c.cacheMu.Unlock()
		}
		return
	}

	prof := a.c.cfg.profile
	run := func(tx *stm.Tx) { fn(a.txCtx(tx)) }
	unsafePossible := (p.volatiles && !prof.TxVolatiles) ||
		(p.libc && !prof.SafeLibc) ||
		(p.io && !prof.OnCommitIO)
	th := a.tctx
	o := tm.Options{Site: p.site, ReadOnly: p.ro}
	switch {
	case !unsafePossible:
		_ = tm.Atomic(th, o, run)
	case p.volatileFirst && !prof.TxVolatiles:
		o.StartSerial = true
		_ = tm.Relaxed(th, o, run)
	default:
		_ = tm.Relaxed(th, o, run)
	}
}

// gstat updates global statistics. In lock branches each call is its own
// stats-lock critical section — the rapid re-locking pattern of Figure 3 —
// unless the stats lock is already held. In transactional branches the update
// flattens into the enclosing transaction (the paper notes TM invites
// enlarging critical sections here) or runs as its own small transaction.
func (a *agent) gstat(fn func(access.Ctx)) {
	if !a.c.cfg.tm {
		if a.heldStats {
			fn(a.dctx)
			return
		}
		a.c.statsMu.Lock()
		fn(a.dctx)
		a.c.statsMu.Unlock()
		return
	}
	if tx := a.openTx(); tx != nil {
		fn(a.txCtx(tx))
		return
	}
	_ = tm.Atomic(a.tctx, tm.Options{Site: "stats"}, func(tx *stm.Tx) { fn(a.txCtx(tx)) })
}

// txCtx returns the agent's transactional context, bound to tx.
func (a *agent) txCtx(tx *stm.Tx) access.Ctx {
	a.txc.T = tx
	return &a.txc
}

// openTx returns the transaction the agent is inside, or nil: between
// sections on a transactional branch, always on a lock branch.
func (a *agent) openTx() *stm.Tx {
	if a.tctx == nil {
		return nil
	}
	return a.tctx.Current()
}

// ---------------------------------------------------------------------------
// Ambient ("no critical section") volatile access: plain atomics in C,
// mini-transactions after stage Max replaces them (§3.3) — the change that
// inflates transaction counts in Tables 2-4.

func (a *agent) volatileLoad(w *stm.TWord) uint64 {
	if a.c.cfg.tm && a.c.cfg.profile.TxVolatiles {
		return tm.LoadWord(a.tctx, w)
	}
	return w.LoadDirect()
}

func (a *agent) volatileStore(w *stm.TWord, v uint64) {
	if a.c.cfg.tm && a.c.cfg.profile.TxVolatiles {
		tm.StoreWord(a.tctx, w, v)
		return
	}
	w.StoreDirect(v)
}

func (a *agent) volatileAdd(w *stm.TWord, delta uint64) uint64 {
	if a.c.cfg.tm && a.c.cfg.profile.TxVolatiles {
		return tm.AddWord(a.tctx, w, delta)
	}
	return w.AddDirect(delta)
}

// ---------------------------------------------------------------------------
// Item locks.
//
// Lock branches: striped mutexes, blocking in workers, trylock in
// maintenance. IP branches: transactional booleans — acquire and release are
// mini-transactions (Figure 1a), and the in-transaction trylock used by
// eviction and hash expansion reads the boolean through the enclosing
// transaction. IT branches: no item locks; the item critical section itself
// is the transaction.

func (a *agent) stripe(hv uint64) int { return int(hv & a.c.stripeMask) }

// itemLock blocks until the stripe covering hv is held. In the IP branches
// this spins over a trylock mini-transaction, matching memcached's use of a
// pthread lock as a spinlock.
func (a *agent) itemLock(hv uint64) {
	if a.c.cfg.itemTx {
		return // IT: the transaction is the critical section
	}
	s := a.stripe(hv)
	if !a.c.cfg.tm {
		a.c.itemMus[s].Lock()
		return
	}
	for !a.itemTryLockTM(s) {
		runtime.Gosched()
	}
}

// itemTryLock attempts the stripe without blocking (maintenance paths).
func (a *agent) itemTryLock(hv uint64) bool {
	if a.c.cfg.itemTx {
		return true
	}
	s := a.stripe(hv)
	if !a.c.cfg.tm {
		return a.c.itemMus[s].TryLock()
	}
	return a.itemTryLockTM(s)
}

func (a *agent) itemUnlock(hv uint64) {
	if a.c.cfg.itemTx {
		return
	}
	s := a.stripe(hv)
	if !a.c.cfg.tm {
		a.c.itemMus[s].Unlock()
		return
	}
	_ = tm.Atomic(a.tctx, tm.Options{Site: "item_lock"}, func(tx *stm.Tx) {
		a.c.itemFlags[s].Store(tx, 0)
	})
}

// itemTryLockTM is the mini-transaction acquire of Figure 1a's tm_trylock.
func (a *agent) itemTryLockTM(s int) bool {
	ok := false
	_ = tm.Atomic(a.tctx, tm.Options{Site: "item_lock"}, func(tx *stm.Tx) {
		ok = false
		if a.c.itemFlags[s].Load(tx) == 0 {
			a.c.itemFlags[s].Store(tx, 1)
			ok = true
		}
	})
	return ok
}

// victimTryLock is the in-transaction trylock (Figure 1a, line 3): ctx is the
// enclosing section's context, so in the IP branches the boolean is read and
// written speculatively inside the larger transaction, and in lock branches
// it is a mutex TryLock. It reports false when the stripe is busy ("save for
// later"); a true return is paired with victimUnlock.
func (a *agent) victimTryLock(ctx access.Ctx, hv uint64) bool {
	if a.c.cfg.itemTx {
		return true
	}
	s := a.stripe(hv)
	if !a.c.cfg.tm {
		return a.c.itemMus[s].TryLock()
	}
	if ctx.Word(a.c.itemFlags[s]) != 0 {
		return false
	}
	ctx.SetWord(a.c.itemFlags[s], 1)
	return true
}

// victimUnlock releases a stripe victimTryLock took.
func (a *agent) victimUnlock(ctx access.Ctx, hv uint64) {
	if a.c.cfg.itemTx {
		return
	}
	s := a.stripe(hv)
	if !a.c.cfg.tm {
		a.c.itemMus[s].Unlock()
		return
	}
	ctx.SetWord(a.c.itemFlags[s], 0)
}
