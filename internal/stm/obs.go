package stm

import (
	"strings"
	"sync/atomic"

	"repro/internal/txobs"
)

// Observability integration. The runtime holds two observer pointers: obsAll
// is the persistent observer (created on first enable, survives disable so
// collected data can still be queried), and obs is the active pointer the hot
// paths consult — nil while tracing is disabled. Every event site in the
// runtime therefore costs exactly one atomic pointer load when tracing is
// off.

// EnableTracing activates transaction event tracing, creating the observer
// (sized to the orec table) on first use, and returns it.
func (rt *Runtime) EnableTracing() *txobs.Observer {
	rt.mu.Lock()
	o := rt.obsAll.Load()
	if o == nil {
		o = txobs.New(txobs.Options{Orecs: len(rt.orecs)})
		rt.obsAll.Store(o)
	}
	rt.mu.Unlock()
	o.Enable()
	rt.obs.Store(o)
	return o
}

// AttachTracing installs a shared observer into this runtime and activates
// event recording. A sharded engine calls it on every shard's runtime with
// one observer, the shard's index, and a disjoint orec base offset, so the
// observer's conflict heat map covers all domains without index collisions
// and every event carries its shard. Subsequent Enable/DisableTracing calls
// keep using the attached observer.
func (rt *Runtime) AttachTracing(o *txobs.Observer, shard, orecBase int) {
	rt.obsShard.Store(int32(shard))
	rt.obsBase.Store(int32(orecBase))
	rt.mu.Lock()
	rt.obsAll.Store(o)
	rt.mu.Unlock()
	o.Enable()
	rt.obs.Store(o)
}

// OrecCount returns the size of the runtime's ownership-record table (for
// sizing a shared observer across sharded runtimes).
func (rt *Runtime) OrecCount() int { return len(rt.orecs) }

// DisableTracing stops event recording. The observer (and everything it has
// collected) remains reachable through TracingObserver.
func (rt *Runtime) DisableTracing() {
	if o := rt.obsAll.Load(); o != nil {
		o.Disable()
	}
	rt.obs.Store(nil)
}

// TracingObserver returns the runtime's observer, or nil if tracing was never
// enabled.
func (rt *Runtime) TracingObserver() *txobs.Observer { return rt.obsAll.Load() }

// orecIndex maps a location id to its orec-table index (the same hash
// orecFor uses) plus the runtime's base offset in a shared observer, for
// conflict-event attribution.
func (rt *Runtime) orecIndex(id uint64) int32 {
	return rt.obsBase.Load() + int32((id*0x9E3779B97F4A7C15)>>32&rt.omask)
}

// obsEvent records a runtime-scoped event (no thread context, e.g. watchdog
// escalations). The tracing-disabled cost is the single obs load.
func (rt *Runtime) obsEvent(k txobs.Kind, cause string) {
	if o := rt.obs.Load(); o != nil {
		o.Record(&txobs.Event{Kind: k, Cause: cause, Orec: -1, Shard: rt.obsShard.Load()})
	}
}

// SetShardInfo stamps the runtime's TM-domain index and orec base offset
// without attaching an observer, so events recorded through a request-trace
// hook carry their shard and orec coordinates even while the aggregate
// observer is off. AttachTracing overwrites these with the same values.
func (rt *Runtime) SetShardInfo(shard, orecBase int) {
	rt.obsShard.Store(int32(shard))
	rt.obsBase.Store(int32(orecBase))
}

// sink returns the thread's recording sink for o, creating it on first use
// (or when tracing was re-enabled with a different observer).
func (th *Thread) sink(o *txobs.Observer) *txobs.Sink {
	if th.obsSinkFor != o {
		th.obsSink = o.NewSink()
		th.obsSinkFor = o
	}
	return th.obsSink
}

// TraceSink receives a copy of every event a thread's transactions emit while
// a request-trace hook is installed (see Thread.SetTraceHook). TraceTx must
// copy the event before returning: the runtime may hand the same pointer to
// the aggregate observer, which stamps and retains it.
type TraceSink interface {
	TraceTx(ev *txobs.Event)
}

// SetTraceHook installs (or, with nil, removes) the thread's request-trace
// hook. The hook makes every event site fire regardless of the aggregate
// observer's state, so a sampled request sees its full span stream even when
// `stats tm` tracing is off. The thread is single-owner; the field is plain.
func (th *Thread) SetTraceHook(t TraceSink) { th.trace = t }

// TraceHook returns the currently installed hook (nil when none).
func (th *Thread) TraceHook() TraceSink { return th.trace }

// deliver fans one event out to the thread's request-trace hook (which copies
// it) and then to the aggregate observer (which takes ownership). Either may
// be absent; callers guarantee at least one is present.
func (th *Thread) deliver(o *txobs.Observer, ev *txobs.Event) {
	if t := th.trace; t != nil {
		t.TraceTx(ev)
	}
	if o != nil {
		th.sink(o).Record(ev)
	}
}

// EnableOwnerTracking allocates the orec-owner attribution table (one
// pointer per orec). Idempotent; called once by the engine when request
// tracing is first enabled. Without it, owner attribution quietly reports
// "" — tracing still works, the conflict graph just has anonymous writers.
func (rt *Runtime) EnableOwnerTracking() {
	if rt.owners.Load() != nil {
		return
	}
	t := make([]atomic.Pointer[string], len(rt.orecs))
	rt.owners.CompareAndSwap(nil, &t)
}

// noteOwner records site as the last traced writer of the orec covering id.
// Last-writer-wins: the table answers "who was here" (approximately), not
// "who holds the lock now" — good enough for a conflict graph, and the
// honest best available once the orec word itself only holds a lock word.
func (rt *Runtime) noteOwner(id uint64, site *string) {
	t := rt.owners.Load()
	if t == nil {
		return
	}
	(*t)[(id*0x9E3779B97F4A7C15)>>32&rt.omask].Store(site)
}

// ownerAt returns the last traced writer's site for the orec covering id,
// "" when unknown.
func (rt *Runtime) ownerAt(id uint64) string {
	t := rt.owners.Load()
	if t == nil {
		return ""
	}
	if p := (*t)[(id*0x9E3779B97F4A7C15)>>32&rt.omask].Load(); p != nil {
		return *p
	}
	return ""
}

// noteSerialOwner records site as the most recent traced serial-lock writer.
func (rt *Runtime) noteSerialOwner(site *string) { rt.serialOwner.Store(site) }

// serialOwnerSite returns the site of the last traced serial-lock writer.
func (rt *Runtime) serialOwnerSite() string {
	if p := rt.serialOwner.Load(); p != nil {
		return *p
	}
	return ""
}

// sitePtr interns the transaction's site label as a stable pointer, cached on
// the thread (sites are static per call site, so the cache almost always
// hits). Used for owner attribution, where an 8-byte pointer store must not
// become a string allocation on the write barrier.
func (tx *Tx) sitePtr() *string {
	th := tx.th
	if th.sitePtrFor != tx.props.Site {
		s := tx.props.Site
		th.sitePtrVal = &s
		th.sitePtrFor = s
	}
	return th.sitePtrVal
}

// noteConflict stashes the abort cause and the conflicting location id on the
// attempt; the run loop reads them when it records the abort event. Called on
// abort paths only (never on the hot path), so it is unconditional.
func (tx *Tx) noteConflict(cause string, id uint64) {
	tx.abortCause = cause
	tx.conflictID = id
}

// obsRecord builds and records an event carrying the attempt's current
// context: site, serial mode, retry ordinal, read/write-set sizes, and the
// conflicting orec/label/owner when one was noted. o may be nil (request
// tracing without the aggregate observer); deliver handles both consumers.
func (tx *Tx) obsRecord(o *txobs.Observer, k txobs.Kind, cause string) {
	ev := &txobs.Event{
		Kind:   k,
		Cause:  cause,
		Site:   tx.props.Site,
		Shard:  tx.rt.obsShard.Load(),
		Serial: tx.serial,
		Retry:  uint32(tx.th.consecAborts.Load()),
		Reads:  uint32(len(tx.reads) + len(tx.nReadsW) + len(tx.nReadsP)),
		Writes: uint32(len(tx.undoW) + len(tx.undoP) + len(tx.redoW) + len(tx.redoP)),
		Orec:   -1,
	}
	if tx.conflictID != 0 {
		ev.Orec = tx.rt.orecIndex(tx.conflictID)
		ev.Label = labelOf(tx.conflictID)
		ev.Owner = tx.rt.ownerAt(tx.conflictID)
	} else if strings.HasPrefix(cause, "conflict: serial-lock subscription") {
		// No orec conflicted — a serial writer's uninstrumented run killed the
		// subscription. Attribute to the last traced serial-lock holder.
		ev.Owner = tx.rt.serialOwnerSite()
	}
	tx.th.deliver(o, ev)
}
