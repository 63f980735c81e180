package stm

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/txobs"
)

// Kind distinguishes the two transaction declarations of the Draft C++ TM
// Specification.
type Kind int

const (
	// Atomic transactions are statically guaranteed (here: dynamically
	// checked) to contain no unsafe operations, and therefore never serialize
	// except for contention-management progress.
	Atomic Kind = iota
	// Relaxed transactions may perform unsafe operations, at which point they
	// become serial and irrevocable.
	Relaxed
)

func (k Kind) String() string {
	if k == Atomic {
		return "atomic"
	}
	return "relaxed"
}

// Props declares a transaction's static properties, the analogue of what the
// GCC front end derives from the source.
type Props struct {
	Kind Kind
	// StartSerial marks a relaxed transaction that performs an unsafe
	// operation on every code path, so the compiler makes it begin in serial
	// mode rather than pay for instrumented execution up to the switch point
	// (the "Start Serial" column of Tables 1-4).
	StartSerial bool
	// Site labels the source-level transaction for serialization-cause
	// profiling (the execinfo-style attribution of §6). Optional.
	Site string
	// ReadOnly declares that the transaction is expected not to write. For the
	// orec-based algorithms (MLWT, Lazy) the attempt then runs on the read-only
	// fast path: it subscribes to the serial lock instead of taking its read
	// side and commits by revalidating its read set against the global
	// timestamp — zero orec acquisitions, zero serial-lock traffic. A write
	// barrier upgrades cleanly: the attempt is discarded (it has no effects)
	// and the body restarts on the normal path. The flag is a hint, never a
	// contract — other algorithms and serial execution simply ignore it.
	ReadOnly bool
	// TrySerial, together with StartSerial, makes the serial write-lock
	// acquisition bounded: if the lock cannot be taken after a short spin, Run
	// returns ErrSerialBusy instead of blocking. The cross-shard commit path
	// uses it for every domain after the first so that two committers
	// acquiring overlapping shard sets in different orders cannot deadlock —
	// the loser unwinds and retries under the blocking (ordered) protocol.
	TrySerial bool
	// MaxRetries, when positive, bounds the consecutive speculative aborts of
	// this source-level transaction: once the bound is reached Run gives up and
	// returns ErrRetryLimit instead of escalating further. Zero means retry
	// forever (the libitm behaviour).
	MaxRetries int
}

// ErrUnsafeInAtomic reports an unsafe operation attempted inside an atomic
// transaction: the dynamic analogue of the compile error GCC raises.
var ErrUnsafeInAtomic = errors.New("stm: unsafe operation inside atomic transaction")

// ErrCanceled is returned by Run when the transaction canceled itself
// (transaction_cancel): its effects are undone and it is not retried.
var ErrCanceled = errors.New("stm: transaction canceled")

// ErrCancelRelaxed reports transaction_cancel attempted in a relaxed
// transaction, which the specification forbids.
var ErrCancelRelaxed = errors.New("stm: cancel inside relaxed transaction")

// ErrRetryLimit is returned by Run when Props.MaxRetries consecutive
// speculative aborts have been consumed without a commit.
var ErrRetryLimit = errors.New("stm: consecutive-abort retry limit exceeded")

// ErrSerialBusy is returned by Run for a Props.TrySerial transaction whose
// bounded serial-lock acquisition failed. No effects occurred.
var ErrSerialBusy = errors.New("stm: serial lock busy")

// control-flow signals thrown by barrier code and recovered by the run loop.
type abortSignal struct{}
type switchSerialSignal struct{ op string }
type cancelSignal struct{}

// roUpgradeSignal is thrown by a write barrier reached under Props.ReadOnly:
// the attempt has no effects to undo, so the run loop simply restarts the body
// on the normal (writer-capable) path. Not an abort for contention-management
// purposes, mirroring the in-flight serial switch.
type roUpgradeSignal struct{}

type wordSlot struct {
	p *atomic.Uint64
	v uint64
}

// ptrSlot logs a pointer cell with a value of it (the pre-image in the undo
// log, the value read in NOrec's read set), both type-erased.
type ptrSlot struct {
	c ptrCell
	v any
}

type wordRedo struct {
	id uint64
	v  uint64
}

// Thread is a per-goroutine transaction descriptor, the analogue of libitm's
// gtm_thread. It is reused across transactions to avoid per-transaction
// allocation. Not safe for concurrent use.
type Thread struct {
	rt  *Runtime
	cur *Tx // non-nil while inside a transaction (flat nesting)
	tx  Tx  // storage reused across transactions

	id       uint64 // hourglass gate identity
	rngState uint64

	// activeSince publishes the begin sequence number of the thread's
	// in-flight speculative transaction (0 = none); committers scan it during
	// privatization-safety quiescence.
	activeSince atomic.Uint64

	// eagerSub marks an in-flight emulated-hardware attempt: subscribed to
	// the serial lock (holding nothing) yet writing eagerly in place. Serial
	// writers drain these after acquiring the lock — the stand-in for real
	// RTM aborting hardware transactions on the lock's cache-line
	// invalidation — since an undo-log rollback racing an uninstrumented
	// serial store would otherwise clobber committed data. Published before
	// the subscription check, mirroring activeSince (see beginSpeculative).
	eagerSub atomic.Bool

	commits atomic.Uint64 // per-thread, for abort-rate variance (§4)
	aborts  atomic.Uint64

	// Watchdog state (see watchdog.go). consecAborts mirrors Run's local
	// consecutive-abort counter; runSince is the UnixNano timestamp at which
	// the in-flight source-level transaction entered Run (0 = idle); escalate
	// is the remedy level the watchdog has imposed.
	consecAborts atomic.Uint64
	runSince     atomic.Int64
	escalate     atomic.Uint32

	// Observability sink, cached per observer (see obs.go). Only touched
	// while tracing is enabled.
	obsSink    *txobs.Sink
	obsSinkFor *txobs.Observer

	// Request-trace hook (see obs.go): non-nil while the current request is
	// being traced. Plain field — the thread is single-owner, and the hook is
	// installed/removed between transactions by the same goroutine.
	trace TraceSink

	// Interned Site pointer cache for owner attribution (see Tx.sitePtr).
	sitePtrVal *string
	sitePtrFor string
}

var threadIDs atomic.Uint64

// Commits returns the number of transactions this thread has committed.
func (th *Thread) Commits() uint64 { return th.commits.Load() }

// Aborts returns the number of speculative attempts this thread has aborted.
func (th *Thread) Aborts() uint64 { return th.aborts.Load() }

// Runtime returns the runtime this thread belongs to.
func (th *Thread) Runtime() *Runtime { return th.rt }

// InTx reports whether the thread is currently inside a transaction. GCC does
// not expose this; the paper's authors had to make it visible to decide
// whether to register an onCommit handler or run it immediately (§3.5).
func (th *Thread) InTx() bool { return th.cur != nil }

// Current returns the in-flight transaction, or nil.
func (th *Thread) Current() *Tx { return th.cur }

func (th *Thread) rand() uint64 {
	// xorshift64*; deterministic per-thread sequence, no global lock.
	x := th.rngState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	th.rngState = x
	return x * 0x2545F4914F6CDD1D
}

// Tx is a transaction attempt descriptor. Barrier methods panic with internal
// signals on conflict; the run loop catches them and retries.
type Tx struct {
	th    *Thread
	rt    *Runtime
	props Props

	serial    bool
	ro        bool      // read-only fast path attempt (orec algorithms only)
	algo      Algorithm // the runtime's algorithm, copied at begin
	lockWord  uint64    // odd; unique per attempt
	start     uint64    // clock snapshot (MLWT/Lazy) or sequence snapshot (NOrec/TML)
	htmSeq    uint64    // serial-lock subscription sequence (HTM)
	roSeq     uint64    // serial-lock subscription sequence (read-only fast path)
	retrySeq  uint64    // serial-lock sequence a Retry-ing attempt ran under (see retry.go)
	tmlWriter bool      // TML: holding the global sequence lock

	reads []orecRead
	owned []ownedOrec
	undoW []wordSlot
	undoP []ptrSlot

	redoW map[*atomic.Uint64]wordRedo
	redoP map[ptrCell]any

	nReadsW []wordSlot
	nReadsP []ptrSlot

	onCommit []func()
	onAbort  []func()

	attempts int

	// Conflict attribution for the observability layer (see obs.go): the
	// cause of the pending abort and the id of the location whose orec
	// conflicted (0 = none). Set on abort paths, read by the run loop when it
	// records the abort event, cleared by begin.
	abortCause string
	conflictID uint64

	// traced is set at begin when the thread has a request-trace hook; write
	// barriers then publish this transaction's site into the orec-owner table
	// so victims can name who aborted them.
	traced bool
}

var lockWords atomic.Uint64

// Kind returns the transaction's declared kind.
func (tx *Tx) Kind() Kind { return tx.props.Kind }

// Serial reports whether the attempt is executing in serial-irrevocable mode.
func (tx *Tx) Serial() bool { return tx.serial }

// ReadOnly reports whether the attempt is executing on the read-only fast
// path (it has not upgraded or serialized).
func (tx *Tx) ReadOnly() bool { return tx.ro }

// Thread returns the owning thread descriptor.
func (tx *Tx) Thread() *Thread { return tx.th }

// OnCommit registers fn to run after the transaction commits and has released
// all locks (the GCC extension the paper's stage 5 depends on).
func (tx *Tx) OnCommit(fn func()) { tx.onCommit = append(tx.onCommit, fn) }

// OnAbort registers fn to run after an aborted attempt has undone its memory
// effects, before it retries.
func (tx *Tx) OnAbort(fn func()) { tx.onAbort = append(tx.onAbort, fn) }

// Cancel undoes the transaction's effects and terminates it without retrying.
// Only atomic transactions may cancel (an irrevocable relaxed transaction
// cannot undo its effects).
func (tx *Tx) Cancel() {
	if tx.props.Kind == Relaxed {
		panic(ErrCancelRelaxed)
	}
	panic(cancelSignal{})
}

// Abort requests an explicit retry of the transaction (used by tests and by
// condition-synchronization experiments).
func (tx *Tx) Abort() {
	tx.noteConflict("explicit abort", 0)
	panic(abortSignal{})
}

// Unsafe marks the execution of an operation the TM system cannot undo (I/O,
// a volatile/atomic access, inline assembly, an un-annotated library call).
// In an atomic transaction it panics — the analogue of GCC's compile error.
// In a relaxed transaction it triggers the in-flight switch to serial
// irrevocable mode: the speculation so far is rolled back and the body
// restarts serially, exactly as libitm behaves.
func (tx *Tx) Unsafe(op string) {
	if tx.serial {
		return
	}
	if tx.props.Kind == Atomic {
		panic(fmt.Errorf("%w: %s", ErrUnsafeInAtomic, op))
	}
	if o := tx.rt.obs.Load(); o != nil || tx.th.trace != nil {
		tx.obsRecord(o, txobs.KInFlightSwitch, causeAt("in-flight switch: "+op, tx.props.Site))
	}
	panic(switchSerialSignal{op: op})
}

func causeAt(cause, site string) string {
	if site == "" {
		return cause
	}
	return cause + " @ " + site
}

// Run executes fn as a transaction with the given properties, retrying on
// conflicts per the configured contention manager. Nested calls flatten into
// the enclosing transaction. It returns nil on commit, ErrCanceled if the
// transaction canceled itself.
//
// Unless the runtime is configured NoQuiesce, a transaction that wrote —
// speculative or serial — does not return from Run while any transaction that
// began before its commit point is still running (see endSpeculation). So fn
// must not block on something only another thread's writing transaction can
// provide once that transaction has returned: the two would wait for each
// other. Waiting on what the other transaction's body does is fine.
func (th *Thread) Run(props Props, fn func(*Tx)) error {
	if th.cur != nil {
		// Flat nesting: subsumed by the outer transaction, as in GCC.
		fn(th.cur)
		return nil
	}
	rt := th.rt
	if props.StartSerial && props.Kind == Atomic {
		panic("stm: StartSerial is only meaningful for relaxed transactions")
	}
	if props.TrySerial && !props.StartSerial {
		panic("stm: TrySerial requires StartSerial")
	}

	// serial is sticky across attempts once escalation (in-flight switch,
	// abort-serial, watchdog) demands it; under SerialAlg begin makes every
	// attempt serial.
	serial := false
	// The read-only fast path exists for the orec-based algorithms, where a
	// reader otherwise pays serial-lock read acquisition and release on every
	// attempt. NOrec's read-only commit is already free, HTM already
	// subscribes, and TML/serial have nothing to skip; begin applies the hint
	// against the runtime's algorithm.
	wantRO := props.ReadOnly
	if props.StartSerial {
		serial = true
		rt.stats.StartSerial.Add(1)
		if o := rt.obs.Load(); o != nil || th.trace != nil {
			th.deliver(o, &txobs.Event{
				Kind: txobs.KStartSerial, Serial: true, Orec: -1,
				Site: props.Site, Cause: causeAt("start serial", props.Site),
				Shard: rt.obsShard.Load(),
			})
		}
	}

	// Source-transaction entry time, for the begin→first-abort phase
	// histogram; sampled only while tracing is on.
	var runT0 time.Time
	if rt.obs.Load() != nil {
		runT0 = time.Now()
	}

	// Publish this source-level transaction to the starvation watchdog; its
	// escalation (and our abort streak) ends when Run returns, however it
	// returns.
	th.runSince.Store(time.Now().UnixNano())
	defer func() {
		th.runSince.Store(0)
		th.consecAborts.Store(0)
		th.escalate.Store(escalateNone)
	}()

	cfg := &rt.cfg
	consec := 0 // consecutive aborts of this source-level transaction
	for {
		if cfg.CM == CMHourglass && !serial {
			th.gateWait()
		}
		tx := th.begin(props, serial, wantRO && !serial)
		if tx == nil {
			return ErrSerialBusy
		}
		res := tx.execute(fn)
		switch res {
		case resCommit:
			th.commits.Add(1)
			rt.stats.Commits.Add(1)
			if tx.serial {
				rt.stats.SerialCommits.Add(1)
			}
			if th.id != 0 {
				// Release the hourglass gate if this thread ever closed it.
				th.gateRelease()
			}
			if o := rt.obs.Load(); o != nil || th.trace != nil {
				tx.obsRecord(o, txobs.KCommit, "")
			}
			th.finish(tx, true)
			return nil
		case resCancel:
			th.finish(tx, false)
			return ErrCanceled
		case resSwitchSerial:
			// In-flight switch: restart the body serially. Not an abort for
			// contention-management purposes.
			rt.stats.InFlightSwitch.Add(1)
			serial = true
			th.finish(tx, false)
			continue
		case resROUpgrade:
			// A write barrier fired under Props.ReadOnly. The attempt wrote
			// nothing and read consistently, so restarting on the
			// writer-capable path is a clean upgrade, not a contention event.
			rt.stats.ROUpgrades.Add(1)
			if o := rt.obs.Load(); o != nil || th.trace != nil {
				tx.obsRecord(o, txobs.KROUpgrade, causeAt("ro upgrade: write in read-only transaction", props.Site))
			}
			wantRO = false
			th.finish(tx, false)
			continue
		case resRetry:
			// Condition synchronization (§5): block until the read set is
			// dirtied by another commit, then re-run. Not an abort for
			// contention-management purposes.
			rt.stats.Retries.Add(1)
			if o := rt.obs.Load(); o != nil || th.trace != nil {
				tx.obsRecord(o, txobs.KRetryWait, "retry: read-set wait")
			}
			th.finish(tx, false)
			tx.waitReadSetChange()
			continue
		case resAbort:
			th.aborts.Add(1)
			rt.stats.Aborts.Add(1)
			consec++
			th.consecAborts.Store(uint64(consec))
			if o := rt.obs.Load(); o != nil || th.trace != nil {
				cause := tx.abortCause
				if cause == "" {
					cause = "conflict: commit validation"
				}
				tx.obsRecord(o, txobs.KAbort, cause)
				if o != nil && consec == 1 && !runT0.IsZero() {
					o.ObservePhase(txobs.PhaseFirstAbort, time.Since(runT0))
				}
			}
			th.finish(tx, false)
			if props.MaxRetries > 0 && consec >= props.MaxRetries {
				return ErrRetryLimit
			}
			if cfg.Algorithm == HTM && consec >= cfg.HTMRetries {
				// Lock-elision fallback: take the global lock for real.
				rt.stats.HTMFallbacks.Add(1)
				if o := rt.obs.Load(); o != nil || th.trace != nil {
					tx.obsRecord(o, txobs.KHTMFallback, causeAt("htm fallback: retry limit", props.Site))
				}
				serial = true
				continue
			}
			switch cfg.CM {
			case CMSerialize:
				if consec >= cfg.SerializeAfter {
					rt.stats.AbortSerial.Add(1)
					// The abort-serial event inherits the conflict that pushed
					// the attempt over the limit, so serialization-for-progress
					// is attributed to a named structure.
					if o := rt.obs.Load(); o != nil || th.trace != nil {
						tx.obsRecord(o, txobs.KAbortSerial, causeAt("abort serial: consecutive-abort limit", props.Site))
					}
					serial = true
				}
			case CMBackoff:
				th.backoff(consec)
			case CMHourglass:
				if consec >= cfg.HourglassAfter {
					th.gateAcquire()
				}
			case CMNone:
				// Retry immediately — but let the scheduler run the
				// conflicting owner. GCC's threads are preemptible on their
				// own cores; a goroutine spin-retrying on a loaded scheduler
				// would otherwise monopolize its P and livelock.
				runtime.Gosched()
			}
			// Watchdog escalation rides on top of (and past) the configured
			// CM: level 1 adds backoff where the CM has none, level 2 forces
			// the next attempt serial-irrevocable for guaranteed progress.
			switch th.escalate.Load() {
			case escalateBackoff:
				if cfg.CM != CMBackoff {
					th.backoff(consec)
				}
			case escalateSerialize:
				serial = true
			}
			continue
		}
	}
}

const (
	resCommit = iota
	resAbort
	resSwitchSerial
	resCancel
	resRetry
	resROUpgrade
)

// trySerialSpins bounds the writer-bit spin and the reader drain of a
// Props.TrySerial acquisition. Long enough to ride out a reader finishing its
// commit, far too short to wait out another serial transaction's body.
const trySerialSpins = 256

func (th *Thread) begin(props Props, serial, wantRO bool) *Tx {
	rt := th.rt
	if serial && props.TrySerial && !rt.serial.TryLock(trySerialSpins) {
		// Bounded acquisition failed. Nothing was published — no stats, no
		// observer event, no th.cur — so the caller sees ErrSerialBusy as if
		// the transaction never started.
		return nil
	}
	tx := &th.tx
	redoW, redoP := tx.redoW, tx.redoP
	*tx = Tx{
		th:       th,
		rt:       rt,
		props:    props,
		lockWord: lockWords.Add(1)<<1 | 1,
		reads:    tx.reads[:0],
		owned:    tx.owned[:0],
		undoW:    tx.undoW[:0],
		undoP:    tx.undoP[:0],
		nReadsW:  tx.nReadsW[:0],
		nReadsP:  tx.nReadsP[:0],
		onCommit: tx.onCommit[:0],
		onAbort:  tx.onAbort[:0],
	}
	tx.redoW, tx.redoP = redoW, redoP
	tx.traced = th.trace != nil
	rt.stats.Starts.Add(1)
	if !serial {
		// Acquire the attempt's serial-lock side; under SerialAlg every
		// attempt is serial.
		serial = !th.beginSpeculative(tx, wantRO)
	}
	tx.serial = serial
	if serial {
		if in := rt.cfg.Fault; in != nil && in.Fire(fault.STMSerialDelay) {
			// Stretch the window in which the writer side of the serial lock
			// is being awaited — the regime where reader-side convoying and
			// privatization races live.
			runtime.Gosched()
		}
		if props.TrySerial {
			// Already acquired by the bounded TryLock at the top of begin.
		} else if o := rt.obs.Load(); o != nil {
			t0 := time.Now()
			rt.serial.Lock()
			o.ObservePhase(txobs.PhaseSerialWait, time.Since(t0))
		} else {
			rt.serial.Lock()
		}
		// The acquisition doomed subscribed hardware attempts; wait for their
		// eager in-place state to be rolled back before running irrevocably.
		rt.drainEagerSubscribed()
		if tx.traced {
			rt.noteSerialOwner(tx.sitePtr())
		}
		tx.algo = rt.cfg.Algorithm
	} else {
		// beginSpeculative already set tx.algo, acquired the read side or
		// the subscription (read-only fast path, HTM elision), and published
		// activeSince — which keeps writers' privatization-safety quiescence
		// covering fast-path readers too.
		switch tx.algo {
		case MLWT, HTM, LazyAlg:
			tx.start = rt.clock.Load()
		case NOrec:
			tx.start = rt.norecBegin()
		case TML:
			tx.tmlBegin()
		}
		// A read-only attempt never populates its redo maps (the first write
		// barrier upgrades before touching them), so skip the map setup.
		if !tx.ro && (tx.algo == LazyAlg || tx.algo == NOrec) {
			if tx.redoW == nil {
				tx.redoW = make(map[*atomic.Uint64]wordRedo)
				tx.redoP = make(map[ptrCell]any)
			} else {
				clear(tx.redoW)
				clear(tx.redoP)
			}
		}
	}
	if o := rt.obs.Load(); o != nil || th.trace != nil {
		th.deliver(o, &txobs.Event{
			Kind: txobs.KBegin, Serial: serial, Site: props.Site,
			Retry: uint32(th.consecAborts.Load()), Orec: -1,
			Shard: rt.obsShard.Load(),
		})
	}
	th.cur = tx
	return tx
}

// beginSpeculative acquires a speculative attempt's serial-lock side:
// read-only and HTM attempts publish activeSince and subscribe (loads only),
// everything else takes the read side. Returns false — with nothing held —
// under SerialAlg, in which case the caller must run serially.
func (th *Thread) beginSpeculative(tx *Tx, wantRO bool) bool {
	rt := th.rt
	algo := rt.cfg.Algorithm
	if algo == SerialAlg {
		return false
	}
	tx.algo = algo
	tx.ro = wantRO && (algo == MLWT || algo == LazyAlg)
	if !tx.ro && algo != HTM {
		rt.serial.RLock()
		th.activeSince.Store(rt.txSeq.Add(1))
		return true
	}
	for {
		// Publish activeSince before subscribing: a concurrent serial writer
		// either makes the subscription fail (writer bit visible) or sees the
		// published state in its commit-time quiescence and waits for this
		// attempt to retire. Emulated-HTM attempts publish their eagerSub
		// mark lazily, at the first eager write (htmMarkEager) — an attempt
		// that has only read holds no in-place state, so a serial writer need
		// not wait for it.
		th.activeSince.Store(rt.txSeq.Add(1))
		seq, ok := rt.serial.trySubscribe()
		if ok {
			if tx.ro {
				tx.roSeq = seq
			} else {
				tx.htmSeq = seq
			}
			return true
		}
		th.activeSince.Store(0)
		rt.serial.waitNoWriter()
	}
}

// finish tears down the attempt; on commit it then runs the onCommit
// handlers after all locks are released, outside any transaction, matching
// GCC's ordering (which is what lets them produce out-of-order I/O, §3.5).
func (th *Thread) finish(tx *Tx, committed bool) {
	th.cur = nil
	if !committed {
		return
	}
	for _, fn := range tx.onCommit {
		fn()
	}
}

// execute runs the body once and classifies the outcome.
func (tx *Tx) execute(fn func(*Tx)) (res int) {
	committed := false
	defer func() {
		if committed {
			return
		}
		r := recover()
		tx.rollback()
		switch r.(type) {
		case nil:
			res = resAbort // tryCommit failed
		case abortSignal:
			tx.runOnAbort()
			res = resAbort
		case htmCapacitySignal:
			tx.runOnAbort()
			res = resAbort
		case retrySignal:
			res = resRetry
		case roUpgradeSignal:
			res = resROUpgrade
		case switchSerialSignal:
			res = resSwitchSerial
		case cancelSignal:
			res = resCancel
		default:
			tx.th.cur = nil // leave the transactional context before unwinding
			panic(r)        // user panic: effects undone, then propagate
		}
	}()
	fn(tx)
	if tx.tryCommit() {
		committed = true
		return resCommit
	}
	tx.runOnAbort()
	// rollback handled by the deferred function (r == nil path)
	return resAbort
}

func (tx *Tx) runOnAbort() {
	for _, fn := range tx.onAbort {
		fn()
	}
}

// ---------------------------------------------------------------------------
// Read and write barriers

// faultBarrier consults the injector at a barrier. Delay points yield to the
// scheduler (widening race windows); abort points panic with the ordinary
// abort signal, but only for speculative attempts — aborting a
// serial-irrevocable transaction would violate irrevocability, so serial
// attempts can only be delayed.
func (tx *Tx) faultBarrier(abortP, delayP fault.Point) {
	in := tx.rt.cfg.Fault
	if in == nil {
		return
	}
	if in.Fire(delayP) {
		runtime.Gosched()
	}
	if !tx.serial && in.Fire(abortP) {
		tx.noteConflict("fault injection", 0)
		panic(abortSignal{})
	}
}

func (tx *Tx) loadWord(id uint64, p *atomic.Uint64) uint64 {
	tx.faultBarrier(fault.STMReadAbort, fault.STMReadDelay)
	if tx.serial {
		return p.Load()
	}
	switch tx.algo {
	case MLWT:
		return tx.orecLoad(id, func() uint64 { return p.Load() })
	case HTM:
		v := tx.orecLoad(id, func() uint64 { return p.Load() })
		tx.htmCheckCapacity()
		return v
	case LazyAlg:
		// Read-only attempts skip the redo lookup: they never write, and the
		// maps may hold stale entries from a previous attempt (begin leaves
		// them untouched on the fast path).
		if !tx.ro {
			if e, ok := tx.redoW[p]; ok {
				return e.v
			}
		}
		return tx.orecLoad(id, func() uint64 { return p.Load() })
	case NOrec:
		if e, ok := tx.redoW[p]; ok {
			return e.v
		}
		v := tx.norecLoadWord(p)
		tx.nReadsW = append(tx.nReadsW, wordSlot{p: p, v: v})
		return v
	case TML:
		return tx.tmlLoad(p.Load)
	}
	panic("stm: bad algorithm")
}

func (tx *Tx) storeWord(id uint64, p *atomic.Uint64, v uint64) {
	tx.faultBarrier(fault.STMWriteAbort, fault.STMWriteDelay)
	if tx.ro {
		panic(roUpgradeSignal{})
	}
	if tx.serial {
		// Serial atomic transactions run "instrumented serial": they keep an
		// undo log because they may still cancel. Serial relaxed transactions
		// are irrevocable and write through unlogged, as in libitm.
		if tx.props.Kind == Atomic {
			tx.undoW = append(tx.undoW, wordSlot{p: p, v: p.Load()})
		}
		p.Store(v)
		return
	}
	switch tx.algo {
	case MLWT, HTM:
		if tx.algo == HTM {
			tx.htmMarkEager()
		}
		tx.orecAcquire(id)
		tx.undoW = append(tx.undoW, wordSlot{p: p, v: p.Load()})
		p.Store(v)
		if tx.algo == HTM {
			tx.htmCheckCapacity()
		}
	case LazyAlg, NOrec:
		tx.redoW[p] = wordRedo{id: id, v: v}
	case TML:
		tx.tmlAcquire()
		tx.undoW = append(tx.undoW, wordSlot{p: p, v: p.Load()})
		p.Store(v)
	}
}

func (tx *Tx) loadPtr(c ptrCell) any {
	tx.faultBarrier(fault.STMReadAbort, fault.STMReadDelay)
	if tx.serial {
		return c.loadRaw()
	}
	switch tx.algo {
	case MLWT, HTM:
		var v any
		tx.orecLoad(c.cellID(), func() uint64 { v = c.loadRaw(); return 0 })
		if tx.algo == HTM {
			tx.htmCheckCapacity()
		}
		return v
	case LazyAlg:
		if !tx.ro {
			if v, ok := tx.redoP[c]; ok {
				return v
			}
		}
		var v any
		tx.orecLoad(c.cellID(), func() uint64 { v = c.loadRaw(); return 0 })
		return v
	case NOrec:
		if v, ok := tx.redoP[c]; ok {
			return v
		}
		v := tx.norecLoadPtr(c)
		tx.nReadsP = append(tx.nReadsP, ptrSlot{c: c, v: v})
		return v
	case TML:
		var v any
		tx.tmlLoad(func() uint64 { v = c.loadRaw(); return 0 })
		return v
	}
	panic("stm: bad algorithm")
}

func (tx *Tx) storePtr(c ptrCell, v any) {
	tx.faultBarrier(fault.STMWriteAbort, fault.STMWriteDelay)
	if tx.ro {
		panic(roUpgradeSignal{})
	}
	if tx.serial {
		if tx.props.Kind == Atomic {
			tx.undoP = append(tx.undoP, ptrSlot{c: c, v: c.loadRaw()})
		}
		c.storeRaw(v)
		return
	}
	switch tx.algo {
	case MLWT, HTM:
		if tx.algo == HTM {
			tx.htmMarkEager()
		}
		tx.orecAcquire(c.cellID())
		tx.undoP = append(tx.undoP, ptrSlot{c: c, v: c.loadRaw()})
		c.storeRaw(v)
		if tx.algo == HTM {
			tx.htmCheckCapacity()
		}
	case LazyAlg, NOrec:
		tx.redoP[c] = v
	case TML:
		tx.tmlAcquire()
		tx.undoP = append(tx.undoP, ptrSlot{c: c, v: c.loadRaw()})
		c.storeRaw(v)
	}
}

// orecLoad performs the orec-validated read protocol shared by MLWT and Lazy.
// read is invoked to sample the location between the two orec samples.
func (tx *Tx) orecLoad(id uint64, read func() uint64) uint64 {
	o := tx.rt.orecFor(id)
	for {
		w1 := o.v.Load()
		if orecLocked(w1) {
			if w1 == tx.lockWord {
				// We own the orec (write-through): the in-place value is ours.
				return read()
			}
			tx.noteConflict("conflict: location locked (read)", id)
			panic(abortSignal{})
		}
		v := read()
		if o.v.Load() != w1 {
			continue // concurrent update between samples; resample
		}
		if orecVersion(w1) > tx.start {
			tx.extend()
		}
		if tx.ro && !tx.rt.serial.stillSubscribed(tx.roSeq) {
			// A serial writer ran (or is running): its uninstrumented stores
			// bump neither orecs nor the clock, so the subscription is the only
			// thing standing between a fast-path reader and a torn snapshot.
			tx.noteConflict("conflict: serial-lock subscription (read-only)", id)
			panic(abortSignal{})
		}
		tx.reads = append(tx.reads, orecRead{o: o, ver: w1, id: id})
		return v
	}
}

// orecAcquire locks the orec covering id for writing (encounter-time, MLWT).
func (tx *Tx) orecAcquire(id uint64) {
	o := tx.rt.orecFor(id)
	for {
		w := o.v.Load()
		if w == tx.lockWord {
			return
		}
		if orecLocked(w) {
			tx.noteConflict("conflict: location locked (write)", id)
			panic(abortSignal{})
		}
		if orecVersion(w) > tx.start {
			tx.extend()
		}
		if o.v.CompareAndSwap(w, tx.lockWord) {
			tx.owned = append(tx.owned, ownedOrec{o: o, prev: w})
			if tx.traced {
				tx.rt.noteOwner(id, tx.sitePtr())
			}
			return
		}
	}
}

// extend attempts a timestamp extension: revalidate the read set at the
// current clock and adopt it as the new start time. On failure, abort.
func (tx *Tx) extend() {
	now := tx.rt.clock.Load()
	if !tx.validateReads() {
		panic(abortSignal{})
	}
	tx.start = now
}

// validateReads checks every read-set entry is still at its observed version
// (or locked by us, with the pre-lock version matching). On failure it notes
// the failing location for conflict attribution.
func (tx *Tx) validateReads() bool {
	for _, r := range tx.reads {
		cur := r.o.v.Load()
		if cur == r.ver {
			continue
		}
		if cur == tx.lockWord {
			if tx.prevFor(r.o) == r.ver {
				continue
			}
		}
		tx.noteConflict("conflict: read validation", r.id)
		return false
	}
	return true
}

func (tx *Tx) prevFor(o *orec) uint64 {
	for _, ow := range tx.owned {
		if ow.o == o {
			return ow.prev
		}
	}
	return ^uint64(0)
}

// ---------------------------------------------------------------------------
// NOrec

// norecBegin samples an even global sequence number.
func (rt *Runtime) norecBegin() uint64 {
	spins := 0
	for {
		s := rt.nseq.Load()
		if s&1 == 0 {
			return s
		}
		spins++
		if spins > 64 {
			runtime.Gosched()
		}
	}
}

func (tx *Tx) norecLoadWord(p *atomic.Uint64) uint64 {
	v := p.Load()
	for tx.rt.nseq.Load() != tx.start {
		tx.start = tx.norecValidate()
		v = p.Load()
	}
	return v
}

func (tx *Tx) norecLoadPtr(c ptrCell) any {
	v := c.loadRaw()
	for tx.rt.nseq.Load() != tx.start {
		tx.start = tx.norecValidate()
		v = c.loadRaw()
	}
	return v
}

// norecValidate re-checks every recorded read by value and returns a new
// consistent snapshot, or aborts.
func (tx *Tx) norecValidate() uint64 {
	for {
		t := tx.rt.norecBegin()
		ok := true
		for _, r := range tx.nReadsW {
			if r.p.Load() != r.v {
				ok = false
				break
			}
		}
		if ok {
			for _, r := range tx.nReadsP {
				if r.c.loadRaw() != r.v {
					ok = false
					break
				}
			}
		}
		if !ok {
			tx.noteConflict("conflict: value validation", 0)
			panic(abortSignal{})
		}
		if tx.rt.nseq.Load() == t {
			return t
		}
	}
}

// ---------------------------------------------------------------------------
// Commit and rollback

// tryCommit attempts to commit; returns false if validation fails (the caller
// rolls back and retries). It times the commit protocol for the phase
// histogram; when tracing is disabled the only extra cost is the obs load.
func (tx *Tx) tryCommit() bool {
	o := tx.rt.obs.Load()
	if o == nil {
		return tx.commitProtocol()
	}
	t0 := time.Now()
	ok := tx.commitProtocol()
	if ok {
		o.ObservePhase(txobs.PhaseCommit, time.Since(t0))
	}
	return ok
}

func (tx *Tx) commitProtocol() bool {
	rt := tx.rt
	if in := rt.cfg.Fault; in != nil {
		if in.Fire(fault.STMCommitDelay) {
			runtime.Gosched()
		}
		// A spurious validation failure: the caller rolls back and retries,
		// the same path a genuine commit-time conflict takes. Never injected
		// into serial attempts (they are irrevocable and cannot fail).
		if !tx.serial && in.Fire(fault.STMCommitFail) {
			tx.noteConflict("fault injection (commit)", 0)
			return false
		}
	}
	if tx.serial {
		// The same grace period a speculative writer's commit pays. Taking the
		// write lock drained the read-lock holders only: attempts that
		// subscribed instead (read-only fast path, emulated HTM that has not
		// written) are doomed by the acquisition but may still be running, and
		// the caller is about to treat what this transaction unlinked as private.
		// The commit point is taken before the release, so attempts that begin
		// once the lock is free are not waited for.
		cs := rt.txSeq.Add(1)
		rt.serial.Unlock()
		if !rt.cfg.NoQuiesce {
			rt.quiesce(cs)
		}
		return true
	}
	if tx.ro {
		return tx.roCommit()
	}
	switch tx.algo {
	case HTM:
		// The lock subscription stands in for real HTM's cache-line
		// monitoring: any serial acquisition since begin aborts us.
		if !rt.serial.stillSubscribed(tx.htmSeq) {
			tx.noteConflict("conflict: serial-lock subscription", 0)
			return false
		}
		wrote := len(tx.owned) > 0
		if wrote {
			if !tx.validateReads() {
				return false
			}
			if !rt.serial.stillSubscribed(tx.htmSeq) {
				tx.noteConflict("conflict: serial-lock subscription", 0)
				return false
			}
			nv := versionWord(rt.clock.Add(1))
			for _, ow := range tx.owned {
				ow.o.v.Store(nv)
			}
			tx.owned = tx.owned[:0]
		}
		tx.endSpeculation(wrote)
		return true
	case MLWT:
		wrote := len(tx.owned) > 0
		if wrote {
			if !tx.validateReads() {
				return false
			}
			nv := versionWord(rt.clock.Add(1))
			for _, ow := range tx.owned {
				ow.o.v.Store(nv)
			}
			tx.owned = tx.owned[:0] // published: nothing to roll back
		}
		rt.serial.RUnlock()
		tx.endSpeculation(wrote)
		return true
	case LazyAlg:
		wrote := len(tx.redoW) > 0 || len(tx.redoP) > 0
		if wrote {
			if !tx.lazyAcquireAll() {
				return false
			}
			if !tx.validateReads() {
				return false
			}
			for p, e := range tx.redoW {
				p.Store(e.v)
			}
			for c, v := range tx.redoP {
				c.storeRaw(v)
			}
			nv := versionWord(rt.clock.Add(1))
			for _, ow := range tx.owned {
				ow.o.v.Store(nv)
			}
			tx.owned = tx.owned[:0]
		}
		rt.serial.RUnlock()
		tx.endSpeculation(wrote)
		return true
	case NOrec:
		if len(tx.redoW) == 0 && len(tx.redoP) == 0 {
			rt.serial.RUnlock()
			tx.endSpeculation(false)
			return true
		}
		for !rt.nseq.CompareAndSwap(tx.start, tx.start+1) {
			tx.start = tx.norecValidate() // aborts via panic on conflict
		}
		for p, e := range tx.redoW {
			p.Store(e.v)
		}
		for c, v := range tx.redoP {
			c.storeRaw(v)
		}
		rt.nseq.Store(tx.start + 2)
		rt.serial.RUnlock()
		tx.endSpeculation(true)
		return true
	case TML:
		wrote := tx.tmlWriter
		tx.tmlCommit()
		tx.tmlWriter = false
		rt.serial.RUnlock()
		tx.endSpeculation(wrote)
		return true
	}
	panic("stm: bad algorithm")
}

// roCommit is the read-only fast-path commit (extend-on-validate, after the
// LSA timestamp-extension trick and NOrec's free read-only commits): if the
// global clock moved since begin, revalidate the read set at the current
// timestamp; then confirm the serial-lock subscription still stands. No orec
// is acquired, the clock is not bumped, and no serial-lock word is written —
// the whole protocol is loads. Nothing is published, so no quiescence either.
func (tx *Tx) roCommit() bool {
	rt := tx.rt
	if rt.clock.Load() != tx.start && !tx.validateReads() {
		return false
	}
	if !rt.serial.stillSubscribed(tx.roSeq) {
		tx.noteConflict("conflict: serial-lock subscription (read-only)", 0)
		return false
	}
	rt.stats.ROFastCommits.Add(1)
	if o := rt.obs.Load(); o != nil || tx.th.trace != nil {
		tx.obsRecord(o, txobs.KROFastCommit, "")
	}
	tx.endSpeculation(false)
	return true
}

// endSpeculation retires the attempt's speculative window and, after a writer
// commit, performs the privatization-safety quiescence the Draft C++ TM
// Specification requires (and the paper's Figure 1a correctness argument
// relies on): wait until every transaction that began before this commit has
// finished, so their doomed eager writes and rollbacks cannot be observed by
// this thread's subsequent nontransactional (privatized) accesses. Serial
// commits pay the same wait (commitProtocol), so the guarantee is uniform:
// when Run returns from a transaction that wrote, no transaction that began
// before its commit point is still running.
func (tx *Tx) endSpeculation(wrote bool) {
	if tx.algo == HTM {
		tx.th.eagerSub.Store(false)
	}
	tx.th.activeSince.Store(0)
	if wrote && !tx.rt.cfg.NoQuiesce {
		tx.rt.quiesce(tx.rt.txSeq.Add(1))
	}
}

// lazyAcquireAll locks the orecs covering the write set; false on conflict.
func (tx *Tx) lazyAcquireAll() bool {
	for _, e := range tx.redoW {
		if !tx.lazyAcquire(e.id) {
			return false
		}
	}
	for c := range tx.redoP {
		if !tx.lazyAcquire(c.cellID()) {
			return false
		}
	}
	return true
}

func (tx *Tx) lazyAcquire(id uint64) bool {
	o := tx.rt.orecFor(id)
	for {
		w := o.v.Load()
		if w == tx.lockWord {
			return true
		}
		if orecLocked(w) {
			tx.noteConflict("conflict: commit-time lock acquisition", id)
			return false
		}
		if o.v.CompareAndSwap(w, tx.lockWord) {
			tx.owned = append(tx.owned, ownedOrec{o: o, prev: w})
			if tx.traced {
				tx.rt.noteOwner(id, tx.sitePtr())
			}
			return true
		}
	}
}

// rollback undoes in-place effects (MLWT), releases owned orecs at their
// pre-lock versions, and releases the serial lock side held by this attempt.
func (tx *Tx) rollback() {
	rt := tx.rt
	if tx.serial {
		// Atomic serial transactions logged undo entries; relaxed serial ones
		// are irrevocable (nothing to undo; their effects stand).
		for i := len(tx.undoW) - 1; i >= 0; i-- {
			tx.undoW[i].p.Store(tx.undoW[i].v)
		}
		for i := len(tx.undoP) - 1; i >= 0; i-- {
			tx.undoP[i].c.storeRaw(tx.undoP[i].v)
		}
		rt.serial.Unlock()
		return
	}
	if tx.algo == TML {
		tx.tmlRollback()
		rt.serial.RUnlock()
		tx.th.activeSince.Store(0)
		return
	}
	for i := len(tx.undoW) - 1; i >= 0; i-- {
		tx.undoW[i].p.Store(tx.undoW[i].v)
	}
	for i := len(tx.undoP) - 1; i >= 0; i-- {
		tx.undoP[i].c.storeRaw(tx.undoP[i].v)
	}
	for _, ow := range tx.owned {
		ow.o.v.Store(ow.prev)
	}
	// HTM and read-only fast-path attempts subscribed instead of taking the
	// read lock; there is nothing to release. The eagerSub mark clears only
	// after the undo restore above — a draining serial writer must not
	// proceed while our in-place state is still visible.
	if tx.algo == HTM {
		tx.th.eagerSub.Store(false)
	} else if !tx.ro {
		rt.serial.RUnlock()
	}
	tx.th.activeSince.Store(0)
}

// ---------------------------------------------------------------------------
// Contention-manager mechanics

func (th *Thread) ensureID() uint64 {
	if th.id == 0 {
		th.id = threadIDs.Add(1)
	}
	return th.id
}

func (th *Thread) gateWait() {
	id := th.ensureID()
	spins := 0
	for {
		g := th.rt.gate.Load()
		if g == 0 || g == id {
			return
		}
		spins++
		if spins > 64 {
			runtime.Gosched()
		}
	}
}

func (th *Thread) gateAcquire() {
	id := th.ensureID()
	spins := 0
	for !th.rt.gate.CompareAndSwap(0, id) {
		if th.rt.gate.Load() == id {
			return
		}
		spins++
		if spins > 64 {
			runtime.Gosched()
		}
	}
}

func (th *Thread) gateRelease() {
	id := th.ensureID()
	th.rt.gate.CompareAndSwap(id, 0)
}

// backoff waits for an exponentially growing interval with deterministic
// seeded jitter (see backoffDelay). Long waits use the OS timer, which is
// exactly the preemption exposure the paper blames for backoff's poor
// behaviour at high thread counts; short waits burn scheduler yields instead.
func (th *Thread) backoff(consec int) {
	if o := th.rt.obs.Load(); o != nil {
		t0 := time.Now()
		defer func() { o.ObservePhase(txobs.PhaseBackoff, time.Since(t0)) }()
	}
	ns := uint64(backoffDelay(&th.rngState, consec))
	if ns < 2048 {
		for i := uint64(0); i < ns/16; i++ {
			runtime.Gosched()
		}
		return
	}
	time.Sleep(time.Duration(ns) * time.Nanosecond)
}

// The abort-backoff curve: the delay window for the n-th consecutive abort is
// backoffBaseNs<<min(n, backoffMaxShift) nanoseconds.
const (
	backoffBaseNs   = 64
	backoffMaxShift = 12
)

// backoffDelay computes the next exponential-with-jitter abort delay: the
// window doubles per consecutive abort up to backoffMaxShift, and the delay is
// drawn from the upper half of the window using the caller's xorshift64*
// state — advancing it — so a fixed seed yields a reproducible sequence (the
// determinism the fault-injection replay harness depends on).
func backoffDelay(state *uint64, consec int) time.Duration {
	ns := uint64(backoffBaseNs) << min(consec, backoffMaxShift)
	x := *state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*state = x
	r := x * 0x2545F4914F6CDD1D
	ns = ns/2 + r%(ns/2+1) // jitter in [ns/2, ns]
	return time.Duration(ns)
}

// mixSeed folds a runtime seed and a thread ordinal into a nonzero xorshift
// state (splitmix64 finalizer).
func mixSeed(seed, ordinal uint64) uint64 {
	z := seed + (ordinal+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31) | 1
}
