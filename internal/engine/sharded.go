package engine

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/assoc"
	"repro/internal/fingerprint"
	"repro/internal/slab"
	"repro/internal/stm"
	"repro/internal/tm"
	"repro/internal/tmctl"
	"repro/internal/txobs"
	"repro/internal/txtrace"
)

// Cache is the memcached engine under one synchronization branch, partitioned
// into Config.Shards independent TM domains. Each shard owns a complete
// engine instance — stm.Runtime (orec table, version clock, serial lock),
// hash table with its own incremental expander, slab allocator, per-class LRU
// heads, maintenance threads — so transactions on different shards share zero
// synchronization words. Single-key commands route by an avalanche mix of the
// key hash (see shardIndex; the bucket index and item-lock stripes consume
// the raw low bits, so shard choice stays independent of intra-shard
// placement); multi-gets split into per-shard groups that each ride the
// read-only fast path.
type Cache struct {
	conf   Config
	cfg    branchCfg
	shards []*shard

	// obs is the shared shard-aware observer: one collector spanning every
	// shard's runtime, with disjoint orec base offsets per shard (lock
	// branches: command latency only). Created on first EnableTracing.
	obs   atomic.Pointer[txobs.Observer]
	obsMu sync.Mutex

	// tracer is the request-scoped tracing layer (internal/txtrace): one
	// tracer spanning every shard, created unconditionally at New (mode off;
	// the idle cost is its memory). The sampler goroutine drives its
	// per-second time series while any tracing mode is active.
	tracer      *txtrace.Tracer
	samplerMu   sync.Mutex
	samplerStop chan struct{}
	samplerWG   sync.WaitGroup

	// ctl is the per-shard feedback controller (Config.TMCtl), nil when
	// disabled or on lock branches. Start/Stop bracket its sampling loop.
	ctl *tmctl.Controller

	// Workload fingerprinting (internal/fingerprint): fpObs is created on
	// first EnableFingerprint and lives for the cache's lifetime; fpLive is
	// non-nil only while sampling is on. See fingerprint.go.
	fpObs  atomic.Pointer[fingerprint.Observer]
	fpLive atomic.Pointer[fingerprint.Observer]
	fpMu   sync.Mutex
	fpStop chan struct{}
	fpWG   sync.WaitGroup
}

// New builds a cache for the given configuration. Call Start to launch the
// per-shard maintenance threads and clocks, and Stop to halt them.
func New(conf Config) *Cache {
	conf = conf.withDefaults()
	if conf.Shards == 0 {
		conf.Shards = runtime.GOMAXPROCS(0)
	}
	if conf.Shards < 1 {
		conf.Shards = 1
	}
	c := &Cache{conf: conf, cfg: configFor(conf.Branch)}
	per := conf
	per.MemLimit = conf.MemLimit / uint64(conf.Shards)
	if per.MemLimit < slab.PageSize {
		// A shard below one slab page could never store anything; the floor
		// may raise the effective total limit, the same rounding memcached's
		// page granularity imposes.
		per.MemLimit = slab.PageSize
	}
	if conf.Shards > 1 && c.cfg.tm && (conf.STM == nil || conf.STM.OrecBits == 0) {
		// Each shard holds ~1/N of the keys, so its orec table shrinks by
		// log2(N): constant total footprint (N full-size tables thrash the
		// cache that one table fits) and constant orec-per-key density, i.e.
		// the same false-conflict probability as the single-domain engine.
		// An explicit OrecBits override disables the scaling.
		bits := stm.DefaultOrecBits
		for n := conf.Shards; n > 1 && bits > 10; n >>= 1 {
			bits--
		}
		sc := stmConfigFor(c.cfg)
		if conf.STM != nil {
			sc = *conf.STM
		}
		sc.OrecBits = bits
		per.STM = &sc
	}
	c.shards = make([]*shard, conf.Shards)
	for i := range c.shards {
		c.shards[i] = newShard(per)
	}
	// Request tracing: one tracer for the whole cache. The head sampler
	// inherits the fault injector's seed when one is configured, so a torture
	// run's trace population is reproducible from the same seed that drives
	// its fault schedule. Shard coordinates are stamped on the runtimes up
	// front so span events carry them even while the aggregate observer is
	// off.
	topt := txtrace.Options{}
	if conf.Fault != nil {
		topt.Seed = conf.Fault.Seed()
	}
	c.tracer = txtrace.New(topt)
	if c.cfg.tm {
		base := 0
		for i, s := range c.shards {
			s.rt.SetShardInfo(i, base)
			base += s.rt.OrecCount()
		}
	}
	if conf.TMCtl != nil && c.cfg.tm && (per.STM == nil || !per.STM.NoSerialLock) {
		c.ctl = tmctl.New(*conf.TMCtl, c.Runtimes(), c.tracer)
	}
	return c
}

// shard0 exposes the first shard to in-package white-box tests.
func (c *Cache) shard0() *shard { return c.shards[0] }

// retryCondSync reports whether the Retry-based maintenance wake-up is
// active (identical on every shard; shard 0 answers).
func (c *Cache) retryCondSync() bool { return c.shards[0].retryCondSync() }

// txRefOpt reports whether the §5 transactional-refcount optimization is
// active (identical on every shard).
func (w *Worker) txRefOpt() bool { return w.ws[0].txRefOpt() }

// shardIndex picks the TM domain for a key hash. The raw hash is FNV-1a,
// whose prime (0x100000001B3) maps a change in the key's last byte to bits
// 40+ and 0-8 — bits 32-39 barely move, so routing on any fixed bit range
// sends whole families of similar keys ("key-0001".."key-0999") to one
// shard. A finalizing mixer (the murmur3 fmix64 avalanche) spreads every
// input bit over the whole word first; the result is also independent of the
// low bits assoc.bucketFor consumes inside the shard.
func shardIndex(hv uint64, n int) int {
	hv ^= hv >> 33
	hv *= 0xff51afd7ed558ccd
	hv ^= hv >> 33
	return int(hv % uint64(n))
}

// NumShards returns the number of independent TM domains.
func (c *Cache) NumShards() int { return len(c.shards) }

// ShardOf reports which TM domain key routes to (workload construction:
// benchmarks and tests that need same-shard or cross-shard key sets).
func (c *Cache) ShardOf(key []byte) int {
	if len(c.shards) == 1 {
		return 0
	}
	return shardIndex(assoc.Hash(key), len(c.shards))
}

// ShardOf reports which TM domain key routes to (the event-loop transport
// uses it post-parse to keep a connection on a shard-affine worker queue).
func (w *Worker) ShardOf(key []byte) int { return w.c.ShardOf(key) }

// Branch returns the branch the cache runs under.
func (c *Cache) Branch() Branch { return c.conf.Branch }

// Runtime returns shard 0's STM runtime (nil for lock branches). Callers that
// want the whole picture use Runtimes or ShardStats; single-shard callers
// (the default on a single-core host) see the one runtime they expect.
func (c *Cache) Runtime() *stm.Runtime { return c.shards[0].rt }

// Runtimes returns every shard's STM runtime, or nil for lock branches.
func (c *Cache) Runtimes() []*stm.Runtime {
	if c.shards[0].rt == nil {
		return nil
	}
	out := make([]*stm.Runtime, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.rt
	}
	return out
}

// ShardStats returns a per-shard snapshot of the runtime counters (empty for
// lock branches) — the per-shard commit/abort/ro_fast_commit breakdown the
// shard-sweep benchmark reports.
func (c *Cache) ShardStats() []stm.Snapshot {
	if c.shards[0].rt == nil {
		return nil
	}
	out := make([]stm.Snapshot, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.rt.Stats()
	}
	return out
}

// Start launches every shard's clock thread and maintenance threads, and the
// feedback controller's sampling loop when one is configured.
func (c *Cache) Start() {
	for _, s := range c.shards {
		s.Start()
	}
	if c.ctl != nil {
		c.ctl.Start()
	}
}

// Stop halts every shard's maintenance threads and waits for them, and stops
// the tracing sampler if one is running.
func (c *Cache) Stop() {
	if c.ctl != nil {
		c.ctl.Stop()
	}
	c.DisableFingerprint()
	c.stopSampler()
	c.fpWG.Wait()
	for _, s := range c.shards {
		s.Stop()
	}
}

// SetTime forces the volatile clock on every shard (tests of expiry and
// flush_all).
func (c *Cache) SetTime(unix uint64) {
	for _, s := range c.shards {
		s.SetTime(unix)
	}
}

// Now reads the volatile clock directly (nontransactional callers). All
// shards tick from the same wall clock; shard 0 answers.
func (c *Cache) Now() uint64 { return c.shards[0].Now() }

// EnableTracing turns on the transaction observability layer and returns its
// observer: ONE collector shared by every shard, sized to the sum of the
// shards' orec tables, with each runtime recording at a disjoint orec base
// offset and stamping its shard index on every event. Cross-shard orec
// collisions are therefore impossible by construction — the observer's
// cross-shard conflict counter stays zero while the domains are independent.
// On lock branches only command latency is collected. Safe to call
// repeatedly; the same observer is returned each time.
func (c *Cache) EnableTracing() *txobs.Observer {
	c.obsMu.Lock()
	defer c.obsMu.Unlock()
	o := c.obs.Load()
	if o == nil {
		opts := txobs.Options{Shards: len(c.shards)}
		if c.shards[0].rt != nil {
			for _, s := range c.shards {
				opts.Orecs += s.rt.OrecCount()
			}
		}
		o = txobs.New(opts)
		c.obs.Store(o)
	}
	if c.shards[0].rt != nil {
		base := 0
		for i, s := range c.shards {
			s.rt.AttachTracing(o, i, base)
			base += s.rt.OrecCount()
		}
	}
	o.Enable()
	return o
}

// DisableTracing stops event recording on every shard; collected data stays
// queryable through Observer.
func (c *Cache) DisableTracing() {
	for _, s := range c.shards {
		if s.rt != nil {
			s.rt.DisableTracing()
		}
	}
	if o := c.obs.Load(); o != nil {
		o.Disable()
	}
}

// Observer returns the shared observability collector, or nil if tracing was
// never enabled on this cache.
func (c *Cache) Observer() *txobs.Observer { return c.obs.Load() }

// Tracer returns the cache's request tracer (never nil; mode off by default).
func (c *Cache) Tracer() *txtrace.Tracer { return c.tracer }

// Controller returns the feedback controller, or nil when Config.TMCtl was
// not set (or the branch has no TM domains to control).
func (c *Cache) Controller() *tmctl.Controller { return c.ctl }

// EnableTxTrace switches request tracing to mode (sampled or full), enables
// orec-owner attribution on every shard runtime, and starts the per-second
// sampler that feeds the time-series ring and anomaly detector. Passing
// ModeOff here is equivalent to DisableTxTrace.
func (c *Cache) EnableTxTrace(mode txtrace.Mode) {
	if mode == txtrace.ModeOff {
		c.DisableTxTrace()
		return
	}
	if c.cfg.tm {
		for _, s := range c.shards {
			s.rt.EnableOwnerTracking()
		}
	}
	c.tracer.SetMode(mode)
	c.startSampler()
}

// DisableTxTrace turns request tracing off (requests go back to the one-
// atomic-load path) and stops the sampler. Collected spans, dumps and the
// time series stay queryable.
func (c *Cache) DisableTxTrace() {
	c.tracer.SetMode(txtrace.ModeOff)
	c.stopSampler()
}

// startSampler launches the 1 Hz tick goroutine once; subsequent calls while
// it runs are no-ops.
func (c *Cache) startSampler() {
	c.samplerMu.Lock()
	defer c.samplerMu.Unlock()
	if c.samplerStop != nil {
		return
	}
	stop := make(chan struct{})
	c.samplerStop = stop
	w := c.NewWorker()
	c.samplerWG.Add(1)
	go func() {
		defer c.samplerWG.Done()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				c.tracer.Tick(c.traceCounters(w))
			}
		}
	}()
}

// stopSampler halts the tick goroutine and waits for it.
func (c *Cache) stopSampler() {
	c.samplerMu.Lock()
	stop := c.samplerStop
	c.samplerStop = nil
	c.samplerMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	c.samplerWG.Wait()
}

// traceCounters snapshots the cumulative counters the time series tracks,
// merged across shards, through the sampler's own worker.
func (c *Cache) traceCounters(w *Worker) txtrace.Counters {
	s := w.Stats()
	return txtrace.Counters{
		Commits:            s.STM.Commits,
		Aborts:             s.STM.Aborts,
		StartSerial:        s.STM.StartSerial,
		InFlightSwitch:     s.STM.InFlightSwitch,
		AbortSerial:        s.STM.AbortSerial,
		SerialCommits:      s.STM.SerialCommits,
		WatchdogBackoffs:   s.STM.WatchdogBackoffs,
		WatchdogSerializes: s.STM.WatchdogSerializes,
		ROFastCommits:      s.STM.ROFastCommits,
		Ops:                s.Aggregated.Ops(),
		GetHits:            s.Aggregated.GetHits,
		GetMisses:          s.Aggregated.GetMisses,
	}
}

// Validate cross-checks every shard's internal structures while quiescent;
// see shard.Validate for the invariants.
func (c *Cache) Validate() error {
	for i, s := range c.shards {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// ValidateQuiescent is Validate plus the balanced-refcount and memory-limit
// checks, summed per shard. Call only with no commands in flight.
func (c *Cache) ValidateQuiescent() error {
	for i, s := range c.shards {
		if err := s.ValidateQuiescent(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Worker is one worker thread's handle on the cache: a per-shard TM context
// and statistics block behind a hash router. Not safe for concurrent use
// (like the shard workers it wraps).
type Worker struct {
	c  *Cache
	ws []*shardWorker

	// buf is the scratch behind Get, GetAndTouch and GetMulti, the forms that
	// return fresh copies.
	buf GetBuf
}

// NewWorker registers a new worker across all shards.
func (c *Cache) NewWorker() *Worker {
	w := &Worker{c: c, ws: make([]*shardWorker, len(c.shards))}
	for i, s := range c.shards {
		w.ws[i] = s.newWorker()
	}
	return w
}

// pick routes a hash to its shard's worker. Every key is hashed exactly
// once per command: the same 64-bit value routes the shard here (mixed, see
// shardIndex) and indexes the shard's bucket array and lock stripes inside
// (raw low bits).
func (w *Worker) pick(hv uint64) *shardWorker {
	if len(w.ws) == 1 {
		return w.ws[0]
	}
	return w.ws[shardIndex(hv, len(w.ws))]
}

// GetInto looks up key and returns its value in b's arena: valid until the
// next call with b, and no allocation once the arena has grown to the value.
func (w *Worker) GetInto(b *GetBuf, key []byte) (val []byte, flags uint32, cas uint64, found bool) {
	hv := assoc.Hash(key)
	b.arena = b.arena[:0]
	return w.pick(hv).get(b, hv, key, false, 0)
}

// GetAndTouchInto is the gat command — fetch and update the expiry in one
// item critical section — with the value in b's arena (see GetInto).
func (w *Worker) GetAndTouchInto(b *GetBuf, key []byte, exptime uint64) (val []byte, flags uint32, cas uint64, found bool) {
	hv := assoc.Hash(key)
	b.arena = b.arena[:0]
	return w.pick(hv).get(b, hv, key, true, exptime)
}

// Get looks up key and returns a copy of its value.
func (w *Worker) Get(key []byte) (val []byte, flags uint32, cas uint64, found bool) {
	val, flags, cas, found = w.GetInto(&w.buf, key)
	return w.ownValue(val, found), flags, cas, found
}

// GetAndTouch is GetAndTouchInto returning a copy of the value.
func (w *Worker) GetAndTouch(key []byte, exptime uint64) (val []byte, flags uint32, cas uint64, found bool) {
	val, flags, cas, found = w.GetAndTouchInto(&w.buf, key, exptime)
	return w.ownValue(val, found), flags, cas, found
}

// ownValue copies a hit's value out of the worker's own scratch, which the
// next call reuses.
func (w *Worker) ownValue(val []byte, found bool) []byte {
	if !found {
		return nil
	}
	out := make([]byte, len(val))
	copy(out, val)
	w.buf.Trim()
	return out
}

// GetMultiInto looks up keys and returns a result per key, in order, in b:
// results and values are valid until the next call with b.
//
// Keys group by shard, and each shard's group runs through that shard's
// batched read-only path (groups of MultiGetBatch, one RO transaction each).
// Snapshot isolation is therefore PER SHARD, not global: keys served by one
// shard are mutually consistent within a batch group, but a multi-get
// spanning shards may observe different shards at different instants — the
// same semantics a client gets from a cluster of independent memcached
// nodes, which is what the shards are.
func (w *Worker) GetMultiInto(b *GetBuf, keys [][]byte) []GetResult {
	b.arena = b.arena[:0]
	b.hvs = resize(b.hvs, len(keys))
	b.res = resize(b.res, len(keys))
	for i, k := range keys {
		b.hvs[i] = assoc.Hash(k)
	}
	if len(w.ws) == 1 {
		w.ws[0].getMulti(b, keys, b.hvs, b.res)
		return b.res
	}
	b.groups = resize(b.groups, len(w.ws))
	for s := range b.groups {
		b.groups[s] = b.groups[s][:0]
	}
	for i := range keys {
		s := shardIndex(b.hvs[i], len(w.ws))
		b.groups[s] = append(b.groups[s], i)
	}
	for s, idxs := range b.groups {
		if len(idxs) == 0 {
			continue
		}
		b.subKeys, b.subHvs = b.subKeys[:0], b.subHvs[:0]
		for _, i := range idxs {
			b.subKeys = append(b.subKeys, keys[i])
			b.subHvs = append(b.subHvs, b.hvs[i])
		}
		b.subRes = resize(b.subRes, len(idxs))
		w.ws[s].getMulti(b, b.subKeys, b.subHvs, b.subRes)
		for j, i := range idxs {
			b.res[i] = b.subRes[j]
		}
	}
	return b.res
}

// GetMulti looks up keys and returns a fresh result per key, in order (see
// GetMultiInto for the semantics).
func (w *Worker) GetMulti(keys [][]byte) []GetResult {
	out := slices.Clone(w.GetMultiInto(&w.buf, keys))
	// One block holds every value's copy.
	vals := make([]byte, 0, len(w.buf.arena))
	for i := range out {
		if out[i].Found {
			off := len(vals)
			vals = append(vals, out[i].Value...)
			out[i].Value = vals[off:len(vals):len(vals)]
		}
	}
	w.buf.Trim()
	return out
}

// Set stores key=value unconditionally.
func (w *Worker) Set(key []byte, flags uint32, exptime uint64, value []byte) StoreResult {
	hv := assoc.Hash(key)
	return w.pick(hv).store(ModeSet, hv, key, flags, exptime, value, 0)
}

// Add stores only if the key is absent.
func (w *Worker) Add(key []byte, flags uint32, exptime uint64, value []byte) StoreResult {
	hv := assoc.Hash(key)
	return w.pick(hv).store(ModeAdd, hv, key, flags, exptime, value, 0)
}

// Replace stores only if the key is present.
func (w *Worker) Replace(key []byte, flags uint32, exptime uint64, value []byte) StoreResult {
	hv := assoc.Hash(key)
	return w.pick(hv).store(ModeReplace, hv, key, flags, exptime, value, 0)
}

// Append appends value to an existing item.
func (w *Worker) Append(key []byte, value []byte) StoreResult {
	hv := assoc.Hash(key)
	return w.pick(hv).store(ModeAppend, hv, key, 0, 0, value, 0)
}

// Prepend prepends value to an existing item.
func (w *Worker) Prepend(key []byte, value []byte) StoreResult {
	hv := assoc.Hash(key)
	return w.pick(hv).store(ModePrepend, hv, key, 0, 0, value, 0)
}

// CAS stores only if the item's CAS id still equals casUnique.
func (w *Worker) CAS(key []byte, flags uint32, exptime uint64, value []byte, casUnique uint64) StoreResult {
	hv := assoc.Hash(key)
	return w.pick(hv).store(ModeCAS, hv, key, flags, exptime, value, casUnique)
}

// Delete removes key; reports whether it existed.
func (w *Worker) Delete(key []byte) bool {
	hv := assoc.Hash(key)
	return w.pick(hv).del(hv, key)
}

// Incr adds delta to a decimal value in place.
func (w *Worker) Incr(key []byte, delta uint64) (uint64, DeltaResult) {
	hv := assoc.Hash(key)
	return w.pick(hv).delta(hv, key, delta, false)
}

// Decr subtracts delta, saturating at zero.
func (w *Worker) Decr(key []byte, delta uint64) (uint64, DeltaResult) {
	hv := assoc.Hash(key)
	return w.pick(hv).delta(hv, key, delta, true)
}

// Touch updates an item's expiry time; reports whether it existed.
func (w *Worker) Touch(key []byte, exptime uint64) bool {
	hv := assoc.Hash(key)
	return w.pick(hv).touch(hv, key, exptime)
}

// FlushAll marks everything stored before now as expired, on every shard.
func (w *Worker) FlushAll() {
	for _, sw := range w.ws {
		sw.FlushAll()
	}
}

// CacheNow reads the volatile clock the way an operation would.
func (w *Worker) CacheNow() uint64 { return w.ws[0].CacheNow() }

// Expanding reports whether any shard has a hash-table expansion in flight.
func (w *Worker) Expanding() bool {
	for _, sw := range w.ws {
		if sw.Expanding() {
			return true
		}
	}
	return false
}

// Observer exposes the cache's shared observability collector to the
// protocol layer, or nil when tracing was never enabled.
func (w *Worker) Observer() *txobs.Observer { return w.c.Observer() }

// Tracer exposes the cache's request tracer (never nil).
func (w *Worker) Tracer() *txtrace.Tracer { return w.c.Tracer() }

// Controller exposes the feedback controller to the protocol layer (nil when
// not configured).
func (w *Worker) Controller() *tmctl.Controller { return w.c.Controller() }

// SetTxTrace installs (nil: removes) a request-trace sink on every shard
// thread this worker owns: while set, each STM event of the worker's
// transactions — whatever shard the command routes to — is delivered to the
// sink. Lock branches have no TM contexts and the call is a no-op there.
func (w *Worker) SetTxTrace(sink stm.TraceSink) {
	for _, sw := range w.ws {
		if sw.tctx != nil {
			tm.SetTrace(sw.tctx, sink)
		}
	}
}

// NumShards reports the TM domain count, for stats output.
func (w *Worker) NumShards() int { return len(w.ws) }

// Runtimes exposes the per-shard STM runtimes (nil on lock branches), so the
// stats surface can report each shard's live algorithm.
func (w *Worker) Runtimes() []*stm.Runtime { return w.c.Runtimes() }

// ShardStats returns each shard's STM snapshot in shard order, for the
// per-domain breakdown in `stats tm` and the shard bench sweep.
func (w *Worker) ShardStats() []stm.Snapshot { return w.c.ShardStats() }

// Stats aggregates every shard: per-thread blocks and global counters sum
// across shards on read, and the STM snapshot is the field-wise sum of the
// per-shard runtime snapshots.
func (w *Worker) Stats() Snapshot {
	var s Snapshot
	for _, sw := range w.ws {
		ss := sw.Stats()
		s.Aggregated = s.Aggregated.Add(ss.Aggregated)
		s.CurrItems += ss.CurrItems
		s.TotalItems += ss.TotalItems
		s.CurrBytes += ss.CurrBytes
		s.Evictions += ss.Evictions
		s.Expired += ss.Expired
		s.Reassigned += ss.Reassigned
		s.HashExpands += ss.HashExpands
		s.HashItems += ss.HashItems
		s.HashBuckets += ss.HashBuckets
		s.SlabBytes += ss.SlabBytes
		s.TxCommits += ss.TxCommits
		s.TxConflicts += ss.TxConflicts
		s.TxSerialFallbacks += ss.TxSerialFallbacks
		s.STM = s.STM.Add(ss.STM)
	}
	return s
}

// ResetStats zeroes the command counters ("stats reset") on every shard —
// per-thread blocks, global event counters, runtime stats — while gauges
// (curr_items, bytes) survive. The shared observer spans all shards and is
// reset exactly once, whatever the current tracing state: toggling tracing
// mid-run attaches/detaches runtimes but never splits the observer, so a
// reset cannot double-clear one shard's view or miss another's. The request
// tracer gets the same treatment: it is cache-global by construction, so the
// slowlog and time-series rings are cleared exactly once per reset whatever
// the mode toggle is doing concurrently (Tracer.Reset clears data only —
// mode, seed and sampler ordinals survive).
func (w *Worker) ResetStats() {
	for _, sw := range w.ws {
		sw.ResetStats()
	}
	if o := w.c.Observer(); o != nil {
		o.Reset()
	}
	w.c.Tracer().Reset()
	// The controller is cache-global like the tracer: its swap counters clear
	// exactly once per reset, and only the counters — modes, learned base
	// configs and dwell clocks are state, not statistics.
	if w.c.ctl != nil {
		w.c.ctl.ResetSwapCounters()
	}
	// The fingerprint observer spans every shard (one fingerprint.Shard per
	// TM domain plus the cache-global txn-phase histograms), so like the
	// observer and tracer above it clears exactly once per reset — never
	// once per shard — whatever an Enable/Disable toggle is doing
	// concurrently. Enabled-state and recorder bindings survive: reset
	// clears windows, not wiring.
	if o := w.c.Fingerprint(); o != nil {
		o.Reset()
	}
}

// SlabStats reports per-class slab allocator detail, merged across shards
// (chunk-size geometry is identical on every shard, so classes align).
func (w *Worker) SlabStats() []SlabClassStat {
	merged := make(map[int]SlabClassStat)
	for _, sw := range w.ws {
		for _, st := range sw.SlabStats() {
			m := merged[st.Class]
			m.Class, m.ChunkSize = st.Class, st.ChunkSize
			m.Pages += st.Pages
			m.FreeChunks += st.FreeChunks
			m.UsedChunks += st.UsedChunks
			merged[st.Class] = m
		}
	}
	out := make([]SlabClassStat, 0, len(merged))
	for _, m := range merged {
		out = append(out, m)
	}
	sortSlabStats(out)
	return out
}

func sortSlabStats(s []SlabClassStat) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1].Class > s[j].Class; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}
