package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/assoc"
	"repro/internal/fault"
	"repro/internal/item"
	"repro/internal/mcstats"
	"repro/internal/sem"
	"repro/internal/slab"
	"repro/internal/stm"
	"repro/internal/tm"
	"repro/internal/txobs"
)

// Heat-map labels for the engine's own shared words.
var (
	lblCurrentTime = txobs.RegisterLabel("current_time")
	lblMaintFlags  = txobs.RegisterLabel("maint_flags")
	lblCasCounter  = txobs.RegisterLabel("cas_counter")
	lblItemStripe  = txobs.RegisterLabel("item_lock_stripe")
)

// Config parameterizes a Cache.
type Config struct {
	Branch Branch

	// Shards partitions the cache into this many independent TM domains, each
	// with its own stm.Runtime (orec table, version clock, serial lock), hash
	// table + incremental expander, slab allocator and per-class LRU heads.
	// Transactions on different shards share zero synchronization words; keys
	// route by the high bits of their hash. Default GOMAXPROCS. MemLimit and
	// HashPower are per-cache: MemLimit divides across shards (floored at one
	// slab page each), while every shard starts at 2^HashPower buckets.
	Shards int

	// STM overrides the branch's default runtime configuration (used by the
	// Figure 11 experiments to swap algorithms and contention managers on the
	// NoLock code base). Nil selects the branch default.
	STM *stm.Config

	// MemLimit bounds slab memory (default 8 MiB: small enough that realistic
	// workloads exercise eviction, as the paper's memslap run does).
	MemLimit uint64
	// HashPower sizes the initial table at 2^HashPower buckets (default 12).
	HashPower uint
	// Stripes is the item-lock stripe count, a power of two (default 1024).
	Stripes int
	// Verbose turns on event logging (the fprintf-to-stderr path).
	Verbose bool
	// LogSink receives verbose log lines; nil discards them.
	LogSink func(string)
	// Automove lets eviction wake the slab rebalancer (the sem_post on the
	// hot path that stage onCommit moves into a handler).
	Automove bool
	// PaperSections keeps the paper's transaction structure on the IT
	// branches at stage onCommit (it-oncommit, it-nolock): one transaction per
	// memcached critical section, so a get is the two volatile
	// mini-transactions, the item section with its refcount increment, the
	// refcount release and a statistics transaction, as in Figures 4-11 and
	// Tables 1-4. The zero value fuses each command there: its sections
	// flat-nest in one transaction, so a get is one read-only commit and a set
	// two (allocation, then the store); see DESIGN.md "Fused commands". Every
	// other branch has a relaxed section or item locks, and always runs the
	// paper's structure.
	PaperSections bool
	// RetryCondSync replaces the Figure 2 semaphore machinery with the
	// condition-synchronization primitive §5 says the specification must
	// provide (stm.Tx.Retry): maintenance threads block on exactly their work
	// predicate, and workers need no wake-up calls at all — the hot-path
	// sem_post disappears rather than moving to an onCommit handler. Only
	// effective on transactional branches at stage Max or later (the
	// predicate flags must be transactional for Retry to observe them).
	RetryCondSync bool

	// Fault wires a deterministic fault injector through every layer of the
	// cache: the STM barriers (unless an explicit STM config already carries
	// one), the slab allocator, and the maintenance threads. Nil disables
	// injection at zero cost.
	Fault *fault.Injector
	// Watchdog, when non-zero, enables the STM starvation watchdog at this
	// scan interval (transactional branches only; see stm.Config).
	Watchdog time.Duration
}

func (c Config) withDefaults() Config {
	if c.MemLimit == 0 {
		c.MemLimit = 8 << 20
	}
	if c.HashPower == 0 {
		c.HashPower = 12
	}
	if c.Stripes == 0 {
		c.Stripes = 1024
	}
	// A hash chain must be covered by a single stripe (same-bucket items must
	// map to the same item lock), which holds whenever stripes <= buckets.
	for c.Stripes > 1<<c.HashPower {
		c.Stripes /= 2
	}
	return c
}

// Cache is the memcached engine under one synchronization branch.
type shard struct {
	conf Config
	cfg  branchCfg

	rt *stm.Runtime // nil for lock branches

	tab    *assoc.Table
	lru    *item.LRU
	slabs  *slab.Allocator
	gstats *mcstats.Global

	// Lock-branch synchronization. Order: item stripes, cache, slabs, stats,
	// per-thread stats.
	itemMus  []sync.Mutex
	cacheMu  sync.Mutex
	slabsMu  sync.Mutex
	statsMu  sync.Mutex
	hashCond *sync.Cond // Baseline: maintenance wake-up on cacheMu
	slabCond *sync.Cond // Baseline: on slabsMu

	// IP-branch transactional item locks.
	itemFlags  []*stm.TWord
	stripeMask uint64

	// Semaphore-branch (and later) maintenance wake-ups.
	hashSem *sem.Sem
	slabSem *sem.Sem

	// Volatile globals (C volatiles / C++11 atomics in memcached).
	CurrentTime *stm.TWord // the clock-thread-updated current_time
	MxCanRun    *stm.TWord // maintenance threads may run (Figure 2)
	hashRunning *stm.TWord // hash maintainer awake (mx_running)
	slabRunning *stm.TWord // slab maintainer awake
	flushBefore *stm.TWord // flush_all watermark

	casCounter *stm.TWord // CAS id source (cache-lock domain)

	// Wire-transaction outcome counters (see wiretx.go): plain atomics, not
	// TWords — they are incremented once per CommitTx after the outcome is
	// known, outside any transaction, so a retried attempt cannot double
	// count. A cross-shard transaction is attributed to its lowest touched
	// shard.
	txCommits   atomic.Uint64
	txConflicts atomic.Uint64

	mu      sync.Mutex // registration of worker stat blocks
	tblocks []*mcstats.Thread

	wg     sync.WaitGroup
	stopCh chan struct{}

	// allocInTx is slabs.AllocNew: what allocItem calls when it is nested in
	// a transaction that stays open. A field so that the torture suite's
	// mutation case can swap in slabs.Alloc, the bug the chunk-ownership rule
	// forbids, without a switch on the allocation path.
	allocInTx func(access.Ctx, int) *item.Item

	// fused is set on the IT branches at stage onCommit unless
	// Config.PaperSections: every section is an atomic transaction there, so
	// a command's sections flat-nest in one, the item section reads the
	// volatiles itself, gets take no reference, and the per-thread statistics
	// block leaves the transaction (see tstat).
	fused bool

	// afterBatchCommit is a test seam, never set outside tests: it runs between
	// a multi-get batch's commit and its deferred touch/unlink sections.
	afterBatchCommit func()
}

// New builds a cache for the given configuration. Call Start to launch the
// maintenance threads and clock, and Stop to halt them.
func newShard(conf Config) *shard {
	conf = conf.withDefaults()
	cfg := configFor(conf.Branch)
	c := &shard{
		conf:        conf,
		cfg:         cfg,
		tab:         assoc.New(conf.HashPower),
		gstats:      mcstats.NewGlobal(),
		slabs:       slab.New(conf.MemLimit, slab.DefaultGrowthFactor, 0),
		hashSem:     sem.New(0),
		slabSem:     sem.New(0),
		CurrentTime: stm.NewTWord(uint64(time.Now().Unix())).Label(lblCurrentTime),
		MxCanRun:    stm.NewTWord(1).Label(lblMaintFlags),
		hashRunning: stm.NewTWord(0).Label(lblMaintFlags),
		slabRunning: stm.NewTWord(0).Label(lblMaintFlags),
		flushBefore: stm.NewTWord(0).Label(lblMaintFlags),
		casCounter:  stm.NewTWord(0).Label(lblCasCounter),
		stopCh:      make(chan struct{}),
		stripeMask:  uint64(conf.Stripes) - 1,
		fused:       cfg.itemTx && cfg.profile.OnCommitIO && !conf.PaperSections,
	}
	c.lru = item.NewLRU(c.slabs.NumClasses())
	c.slabs.SetFault(conf.Fault)
	c.allocInTx = c.slabs.AllocNew
	if cfg.tm {
		sc := stmConfigFor(cfg)
		if conf.STM != nil {
			sc = *conf.STM
		}
		if sc.Fault == nil {
			sc.Fault = conf.Fault
		}
		if sc.WatchdogInterval == 0 {
			sc.WatchdogInterval = conf.Watchdog
		}
		c.rt = stm.New(sc)
		c.itemFlags = make([]*stm.TWord, conf.Stripes)
		for i := range c.itemFlags {
			c.itemFlags[i] = stm.NewTWord(0).Label(lblItemStripe)
		}
	} else {
		c.itemMus = make([]sync.Mutex, conf.Stripes)
		c.hashCond = sync.NewCond(&c.cacheMu)
		c.slabCond = sync.NewCond(&c.slabsMu)
	}
	return c
}

// Runtime returns the shard's STM runtime, or nil for lock branches.
func (c *shard) Runtime() *stm.Runtime { return c.rt }

// newAgent creates an execution principal (worker or maintenance thread).
func (c *shard) newAgent() *agent {
	a := &agent{c: c}
	if c.cfg.tm {
		a.tctx = c.rt.NewThread()
		// The single-source requirement slows the nontransactional clones
		// once the tm_* library exists (§3.4).
		a.dctx = access.DirectCtx{NaiveLibc: c.cfg.profile.SafeLibc}
		a.txc.Profile = c.cfg.profile
	}
	return a
}

// Start launches the clock thread and the two maintenance threads.
func (c *shard) Start() {
	if c.rt != nil {
		c.rt.StartWatchdog()
	}
	c.wg.Add(3)
	go c.clockThread()
	go c.hashMaintainer()
	go c.slabMaintainer()
}

// Stop halts maintenance threads and waits for them (Figure 2's
// halt_maintainer: clear mx_can_run, then wake everyone).
func (c *shard) Stop() {
	if c.retryCondSync() {
		// Retry waiters wake on orec changes, so the shutdown flag must be
		// written transactionally.
		tm.StoreWord(c.rt.NewThread(), c.MxCanRun, 0)
	}
	c.MxCanRun.StoreDirect(0)
	close(c.stopCh)
	if c.cfg.condvars {
		c.cacheMu.Lock()
		c.hashCond.Broadcast()
		c.cacheMu.Unlock()
		c.slabsMu.Lock()
		c.slabCond.Broadcast()
		c.slabsMu.Unlock()
	} else {
		c.hashSem.Post()
		c.slabSem.Post()
	}
	c.wg.Wait()
	if c.rt != nil {
		c.rt.StopWatchdog()
	}
}

// SetTime forces the volatile clock (tests of expiry and flush_all).
func (c *shard) SetTime(unix uint64) { c.CurrentTime.StoreDirect(unix) }

// Now reads the volatile clock directly (nontransactional callers).
func (c *shard) Now() uint64 { return c.CurrentTime.LoadDirect() }

// clockThread is memcached's clock handler: a dedicated updater of the
// volatile current_time, which holds whole seconds. memcached ticks once a
// second; this one samples five times a second, so the value it stores is
// never more than 200 ms behind the wall clock.
func (c *shard) clockThread() {
	defer c.wg.Done()
	t := time.NewTicker(200 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-t.C:
			c.CurrentTime.StoreDirect(uint64(time.Now().Unix()))
		}
	}
}

// log emits a verbose event line.
func (c *shard) log() func(string) {
	if !c.conf.Verbose {
		return nil
	}
	return c.conf.LogSink
}

// ---------------------------------------------------------------------------
// Maintenance threads (§3.2, Figure 2)

// retryCondSync reports whether the Retry-based maintenance wake-up is
// active (transactional branches, stage Max+).
func (c *shard) retryCondSync() bool {
	return c.conf.RetryCondSync && c.cfg.tm && c.cfg.profile.TxVolatiles
}

// faultSleep stalls briefly when the named injection point fires — the
// delayed-wakeup / mid-expansion-stall schedules implicated in the lost-key
// and starvation incidents.
func (c *shard) faultSleep(p fault.Point, d time.Duration) {
	if c.conf.Fault.Fire(p) {
		time.Sleep(d)
	}
}

// hashMaintainer migrates hash buckets during expansion. Baseline uses the
// condition-variable pattern on the cache lock; every other branch uses the
// semaphore transformation — or, with RetryCondSync, blocks directly on its
// work predicate via stm.Tx.Retry (§5's missing primitive).
func (c *shard) hashMaintainer() {
	defer c.wg.Done()
	a := c.newAgent()
	if c.retryCondSync() {
		c.hashMaintainerRetry(a)
		return
	}
	if c.cfg.condvars {
		c.cacheMu.Lock()
		a.heldCache = true
		for c.MxCanRun.LoadDirect() == 1 {
			work := false
			ctx := a.dctx
			if c.tab.NeedExpand(ctx) {
				c.tab.StartExpand(ctx)
				a.gstat(func(g access.Ctx) { g.AddWord(c.gstats.HashExpands, 1) })
				work = true
			}
			if c.tab.IsExpanding(ctx) {
				c.expandChunk(a, ctx)
				work = true
			}
			if work {
				// Yield the cache lock between bulk moves so workers can
				// make progress during expansion, as memcached does.
				a.heldCache = false
				c.cacheMu.Unlock()
				c.cacheMu.Lock()
				a.heldCache = true
				continue
			}
			c.hashRunning.StoreDirect(0)
			c.hashCond.Wait()
		}
		a.heldCache = false
		c.cacheMu.Unlock()
		return
	}
	for c.MxCanRun.LoadDirect() == 1 {
		c.hashSem.Wait()
		for c.hashSem.TryWait() {
			// Coalesce queued wake-ups into one service pass.
		}
		if c.MxCanRun.LoadDirect() != 1 {
			return
		}
		c.faultSleep(fault.MaintHashDelay, time.Millisecond)
		for {
			progressed := false
			a.section(domains{cache: true}, profile{volatiles: true, volatileFirst: true, io: true, site: "assoc_maintenance"}, func(ctx access.Ctx) {
				progressed = false
				if c.tab.NeedExpand(ctx) {
					c.tab.StartExpand(ctx)
					a.gstat(func(g access.Ctx) { g.AddWord(c.gstats.HashExpands, 1) })
					ctx.Fprintf(c.log(), "hash table expansion starting")
					progressed = true
				}
				if c.tab.IsExpanding(ctx) {
					c.expandChunk(a, ctx)
					progressed = true
				}
			})
			if !progressed || c.MxCanRun.LoadDirect() != 1 {
				break
			}
			// Yield between bulk moves: workers holding the stripe the
			// migration needs must get to run, or the save-for-later path
			// (Figure 1a) retries the same bucket unproductively.
			runtime.Gosched()
		}
		a.volatileStore(c.hashRunning, 0)
	}
}

// hashMaintainerRetry is the Retry-based maintainer: one transaction that
// blocks until "shutdown or expansion work exists" becomes true. No
// semaphore, no mx_running flag, no worker-side wake-ups.
func (c *shard) hashMaintainerRetry(a *agent) {
	for {
		shutdown := false
		a.section(domains{cache: true}, profile{volatiles: true, io: true, site: "assoc_maintenance"}, func(ctx access.Ctx) {
			shutdown = false
			if ctx.Volatile(c.MxCanRun) == 0 {
				shutdown = true
				return
			}
			if c.tab.NeedExpand(ctx) {
				c.tab.StartExpand(ctx)
				a.gstat(func(g access.Ctx) { g.AddWord(c.gstats.HashExpands, 1) })
				ctx.Fprintf(c.log(), "hash table expansion starting")
				return
			}
			if c.tab.IsExpanding(ctx) {
				c.expandChunk(a, ctx)
				return
			}
			ctx.Tx().Retry() // sleep on the predicate itself
		})
		if shutdown {
			return
		}
		runtime.Gosched()
	}
}

// slabMaintainerRetry is the Retry-based slab rebalancer.
func (c *shard) slabMaintainerRetry(a *agent) {
	for {
		shutdown := false
		a.section(domains{slabs: true}, profile{volatiles: true, io: true, site: "slab_maintenance"}, func(ctx access.Ctx) {
			shutdown = false
			if ctx.Volatile(c.MxCanRun) == 0 {
				shutdown = true
				return
			}
			if ctx.Volatile(c.slabRunning) == 0 {
				ctx.Tx().Retry() // wait for an eviction notification flag
			}
			ctx.SetVolatile(c.slabRunning, 0)
			c.rebalanceOnce(a, ctx)
		})
		if shutdown {
			return
		}
		runtime.Gosched()
	}
}

// expandChunk migrates a bulk of buckets with the Figure 1a trylock protocol
// against item locks (held later in the lock order than the cache lock the
// maintainer already owns — the documented order violation).
func (c *shard) expandChunk(a *agent, ctx access.Ctx) {
	// A stall here leaves the table half-expanded (old and new arrays both
	// live) while workers race against it — the window of the lost-key
	// incident.
	c.faultSleep(fault.MaintExpandStall, 100*time.Microsecond)
	if c.cfg.itemTx {
		// No item locks to take: conflict detection stands in for them.
		c.tab.ExpandStepLocked(ctx, assoc.BulkMove, nil)
		return
	}
	c.tab.ExpandStepLocked(ctx, assoc.BulkMove, func(hv uint64) (func(), bool) {
		if !a.victimTryLock(ctx, hv) {
			return nil, false
		}
		return func() { a.victimUnlock(ctx, hv) }, true
	})
}

// slabMaintainer performs slab page rebalancing, guarded by the rebalance
// boolean that replaced the slab_rebalance trylock (§3.1).
func (c *shard) slabMaintainer() {
	defer c.wg.Done()
	a := c.newAgent()
	if c.retryCondSync() {
		c.slabMaintainerRetry(a)
		return
	}
	if c.cfg.condvars {
		c.slabsMu.Lock()
		a.heldSlabs = true
		for c.MxCanRun.LoadDirect() == 1 {
			if !c.rebalanceOnce(a, a.dctx) {
				c.slabRunning.StoreDirect(0)
				c.slabCond.Wait()
			}
		}
		a.heldSlabs = false
		c.slabsMu.Unlock()
		return
	}
	for c.MxCanRun.LoadDirect() == 1 {
		c.slabSem.Wait()
		for c.slabSem.TryWait() {
			// Coalesce the per-eviction automove notifications: the cost the
			// paper measures is the posting side, not redundant services.
		}
		if c.MxCanRun.LoadDirect() != 1 {
			return
		}
		c.faultSleep(fault.MaintSlabDelay, time.Millisecond)
		a.section(domains{slabs: true}, profile{volatiles: true, volatileFirst: true, io: true, site: "slab_maintenance"}, func(ctx access.Ctx) {
			c.rebalanceOnce(a, ctx)
		})
		a.volatileStore(c.slabRunning, 0)
		runtime.Gosched()
	}
}

// rebalanceOnce attempts one page move; reports whether it made progress.
func (c *shard) rebalanceOnce(a *agent, ctx access.Ctx) bool {
	if !c.slabs.TryStartRebalance(ctx) {
		return false // concurrent maintenance in flight
	}
	moved := false
	if d, r, ok := c.slabs.PickMove(ctx); ok {
		if c.slabs.MovePage(ctx, d, r) {
			a.gstat(func(g access.Ctx) { g.AddWord(c.gstats.Reassigned, 1) })
			ctx.Fprintf(c.log(), "slab page reassigned")
			moved = true
		}
	}
	c.slabs.EndRebalance(ctx)
	return moved
}

// signalHash wakes the hash maintainer if it is idle (the Figure 2 worker
// pattern: check mx_running, set it, post).
func (c *shard) signalHash(ctx access.Ctx) {
	if c.retryCondSync() {
		// The maintainer sleeps on the table's state itself (Retry); the
		// insert that made NeedExpand true is already the wake-up.
		return
	}
	if ctx.Volatile(c.hashRunning) != 0 {
		return
	}
	ctx.SetVolatile(c.hashRunning, 1)
	if c.cfg.condvars {
		c.hashCond.Signal() // caller holds cacheMu
		return
	}
	ctx.SemPost(c.hashSem)
}

// signalSlab notifies the slab maintainer of an eviction (the automove
// decision input). Unlike the hash wake-up, these notifications are not
// deduplicated: every eviction posts, which is exactly the hot-path sem_post
// whose serialization cost the onCommit stage removes (§3.5).
func (c *shard) signalSlab(ctx access.Ctx) {
	if c.retryCondSync() {
		// Setting the notification flag transactionally wakes the Retry
		// waiter; no sem_post (and so no unsafe operation) at all.
		ctx.SetVolatile(c.slabRunning, 1)
		return
	}
	ctx.SetVolatile(c.slabRunning, 1)
	if c.cfg.condvars {
		c.slabCond.Signal() // Baseline holds slabsMu on the eviction path
		return
	}
	ctx.SemPost(c.slabSem)
}
