// Package stm implements a software transactional memory runtime modeled on
// the architecture of GCC's libitm, the runtime the paper "Transactionalizing
// Legacy Code" (ASPLOS 2014) studies and modifies.
//
// Because Go has no compiler instrumentation, shared locations are explicit
// transactional cells (TWord, TPtr, TAny, TBytes) and the read/write barriers
// that GCC would emit are method calls on a transaction descriptor (Tx). The
// runtime-level protocol is otherwise structurally faithful to libitm:
//
//   - an ownership-record (orec) table hashed by location id, with a global
//     version clock (the GCC default "ml_wt" algorithm: eager, write-through,
//     undo log, commit-time validation);
//   - an alternative "lazy" algorithm that shares the orec table but buffers
//     updates and acquires locks at commit (footnote 2 of the paper);
//   - the NOrec algorithm (global sequence lock, value-based validation);
//   - a global readers/writer "serial" lock acquired in read mode by every
//     transaction and in write mode by serialized transactions (the bottleneck
//     Figure 10 removes);
//   - serial-irrevocable execution, entered either at begin time ("start
//     serial"), on encountering an unsafe operation ("in-flight switch"), or
//     after 100 consecutive aborts ("abort serial"), with a statistics
//     breakdown matching Tables 1-4 of the paper;
//   - pluggable contention management: the GCC default (serialize after N
//     aborts), no CM at all, randomized exponential backoff, and the
//     "hourglass" manager (gate out new transactions after 128 consecutive
//     aborts until the starving transaction commits).
//
// One Runtime is one TM domain; all transactional locations accessed by its
// transactions must have been created while it is the ambient runtime (ids are
// global, so locations may in fact be shared across runtimes; the orec tables
// are per-runtime). Each worker goroutine creates a Thread descriptor and runs
// transactions through it.
package stm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/txobs"
)

// Algorithm selects the concurrency-control protocol used by speculative
// (non-serial) transactions.
type Algorithm int

const (
	// MLWT is the GCC default: multiple locks, write-through (eager, in-place
	// update with an undo log), encounter-time locking, commit-time read-set
	// validation against orec versions.
	MLWT Algorithm = iota
	// LazyAlg shares the orec table with MLWT but buffers updates in a redo
	// log and acquires orecs at commit time.
	LazyAlg
	// NOrec uses a single global sequence lock and value-based validation;
	// writes are buffered.
	NOrec
	// SerialAlg runs every transaction serially and irrevocably. It exists as
	// a correctness baseline and for tests.
	SerialAlg
	// HTM emulates best-effort hardware transactions with a capacity limit,
	// serial-lock subscription, and lock fallback after HTMRetries aborts
	// (the GCC RTM path §5 discusses). See htm.go.
	HTM
	// TML is the Transactional Mutex Lock: a single global sequence lock,
	// invisible readers, fully serialized writers. See tml.go.
	TML
)

func (a Algorithm) String() string {
	switch a {
	case MLWT:
		return "mlwt"
	case LazyAlg:
		return "lazy"
	case NOrec:
		return "norec"
	case SerialAlg:
		return "serial"
	case HTM:
		return "htm"
	case TML:
		return "tml"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm converts a user-facing name into an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "mlwt", "gcc", "eager":
		return MLWT, nil
	case "lazy":
		return LazyAlg, nil
	case "norec":
		return NOrec, nil
	case "serial":
		return SerialAlg, nil
	case "htm", "rtm":
		return HTM, nil
	case "tml":
		return TML, nil
	}
	return 0, fmt.Errorf("stm: unknown algorithm %q", s)
}

// ContentionManager selects the policy applied when transactions abort.
type ContentionManager int

const (
	// CMSerialize is the GCC policy: retry immediately, and after
	// Config.SerializeAfter consecutive aborts become serial and irrevocable
	// for the sake of progress (counted as "Abort Serial" in the tables).
	CMSerialize ContentionManager = iota
	// CMNone retries immediately and never serializes.
	CMNone
	// CMBackoff applies randomized exponential backoff between retries.
	CMBackoff
	// CMHourglass lets a transaction that has aborted Config.HourglassAfter
	// consecutive times close a global gate: no new transactions may begin
	// until it commits. It never serializes.
	CMHourglass
)

func (c ContentionManager) String() string {
	switch c {
	case CMSerialize:
		return "serialize"
	case CMNone:
		return "none"
	case CMBackoff:
		return "backoff"
	case CMHourglass:
		return "hourglass"
	}
	return fmt.Sprintf("ContentionManager(%d)", int(c))
}

// ParseCM converts a user-facing name into a ContentionManager.
func ParseCM(s string) (ContentionManager, error) {
	switch s {
	case "serialize", "gcc":
		return CMSerialize, nil
	case "none", "nocm":
		return CMNone, nil
	case "backoff":
		return CMBackoff, nil
	case "hourglass":
		return CMHourglass, nil
	}
	return 0, fmt.Errorf("stm: unknown contention manager %q", s)
}

// Config parameterizes a Runtime.
type Config struct {
	Algorithm Algorithm
	CM        ContentionManager

	// SerializeAfter is the consecutive-abort threshold at which CMSerialize
	// falls back to serial-irrevocable mode. GCC uses 100.
	SerializeAfter int
	// HourglassAfter is the consecutive-abort threshold at which CMHourglass
	// closes the gate. The paper configures 128.
	HourglassAfter int
	// NoSerialLock removes the global readers/writer lock (the Figure 10
	// modification). Speculative transactions then acquire nothing at begin;
	// transactions that must run serially fall back to a plain mutex that
	// excludes only other serial transactions (valid only for workloads with
	// no relaxed transactions, which is the regime Figure 10 studies).
	NoSerialLock bool
	// NoQuiesce disables the privatization-safety quiescence writers perform
	// at commit. ONLY sound for programs that never access transactional data
	// nontransactionally after observing a transactional flag (no
	// privatization idioms) — the Draft C++ TM Specification requires the
	// safety, so this exists purely to measure its cost (see the ablation
	// benchmarks).
	NoQuiesce bool
	// OrecBits sizes the orec table at 1<<OrecBits entries (default 16).
	OrecBits int
	// HTMCapacity bounds the location footprint of an emulated hardware
	// transaction (default 64); exceeding it is a capacity abort.
	HTMCapacity int
	// HTMRetries is how many aborts an emulated hardware transaction takes
	// before falling back to the serial lock (default 3).
	HTMRetries int

	// Fault, when non-nil, injects deterministic faults at the STM's named
	// injection points (forced aborts and delays in the barriers, spurious
	// validation failures at commit, serial-lock acquisition delays). Serial
	// transactions are never aborted — irrevocability is preserved.
	Fault *fault.Injector

	// Seed seeds each thread's jitter state for the exponential abort
	// backoff, making delay sequences reproducible across runs. Zero adopts
	// the fault injector's seed when one is wired, else a fixed default.
	Seed uint64

	// WatchdogInterval enables the starvation watchdog: a goroutine (started
	// by StartWatchdog) that scans threads every interval and escalates any
	// transaction past WatchdogAborts consecutive aborts or WatchdogAge of
	// retrying through the contention-manager ladder: first randomized
	// backoff, then serial-irrevocable execution. Zero disables it.
	WatchdogInterval time.Duration
	// WatchdogAborts is the consecutive-abort threshold (default 64).
	WatchdogAborts uint64
	// WatchdogAge is the source-transaction age threshold (default 50ms).
	WatchdogAge time.Duration
}

const (
	defaultSerializeAfter = 100
	defaultHourglassAfter = 128
	defaultOrecBits       = 16

	defaultWatchdogAborts = 64
	defaultWatchdogAge    = 50 * time.Millisecond
)

// DefaultOrecBits is the orec-table size a zero Config gets (1<<16 entries),
// exported so a sharded embedder can divide the table across runtimes while
// keeping the total footprint — and the orec-per-key density — constant.
const DefaultOrecBits = defaultOrecBits

func (c Config) withDefaults() Config {
	if c.SerializeAfter <= 0 {
		c.SerializeAfter = defaultSerializeAfter
	}
	if c.HourglassAfter <= 0 {
		c.HourglassAfter = defaultHourglassAfter
	}
	if c.OrecBits <= 0 {
		c.OrecBits = defaultOrecBits
	}
	if c.HTMCapacity <= 0 {
		c.HTMCapacity = defaultHTMCapacity
	}
	if c.HTMRetries <= 0 {
		c.HTMRetries = defaultHTMRetries
	}
	if c.Algorithm == HTM {
		// Hardware transactions are defined by their relationship to the
		// fallback lock; removing it is not meaningful (§5).
		c.NoSerialLock = false
	}
	if c.WatchdogAborts == 0 {
		c.WatchdogAborts = defaultWatchdogAborts
	}
	if c.WatchdogAge <= 0 {
		c.WatchdogAge = defaultWatchdogAge
	}
	return c
}

// Runtime is a TM domain: an orec table, a version clock, the global serial
// lock, a contention-management gate, and statistics.
type Runtime struct {
	cfg  Config
	seed uint64 // backoff-jitter seed (Config.Seed, defaulted)

	clock  atomic.Uint64 // global version clock (MLWT, Lazy)
	nseq   atomic.Uint64 // NOrec global sequence lock (odd = writer committing)
	orecs  []orec
	omask  uint64
	serial serialLock
	gate   atomic.Uint64 // hourglass gate: 0 = open, else owner tx lock word

	// txSeq orders transaction begins against commit points for the
	// privatization-safety quiescence protocol (see Tx.endSpeculation).
	txSeq  atomic.Uint64
	thSnap atomic.Pointer[[]*Thread] // lock-free snapshot for quiescence scans

	stats Stats

	prof atomic.Pointer[SerializationProfile]

	// obs is the active observability sink (nil = tracing disabled; the hot
	// paths pay one atomic load to find out). obsAll is the persistent
	// observer, kept across DisableTracing. See obs.go.
	obs    atomic.Pointer[txobs.Observer]
	obsAll atomic.Pointer[txobs.Observer]

	// obsShard and obsBase identify this runtime inside a shared observer
	// (sharded engines): the TM-domain index stamped on every event, and the
	// offset of this runtime's orec range in the observer's heat map. Both
	// zero when the runtime owns its observer alone. See AttachTracing.
	obsShard atomic.Int32
	obsBase  atomic.Int32

	// owners is the orec-owner attribution table for request tracing: one
	// interned site-label pointer per orec slot, stored by traced writers at
	// lock acquisition and read by traced victims at abort. Lazily allocated
	// by EnableOwnerTracking; nil (one pointer load) when tracing never ran.
	// serialOwner is the site of the last traced serial-lock writer — the
	// "who" behind serial-subscription aborts. Both are last-writer-wins
	// approximations; see obs.go.
	owners      atomic.Pointer[[]atomic.Pointer[string]]
	serialOwner atomic.Pointer[string]

	watchStop chan struct{}
	watchWG   sync.WaitGroup

	mu      sync.Mutex
	threads []*Thread
}

// New creates a Runtime from cfg, applying defaults for zero fields.
func New(cfg Config) *Runtime {
	cfg = cfg.withDefaults()
	rt := &Runtime{
		cfg:   cfg,
		orecs: make([]orec, 1<<cfg.OrecBits),
		omask: uint64(1<<cfg.OrecBits) - 1,
	}
	rt.serial.disabled = cfg.NoSerialLock
	rt.clock.Store(1)
	rt.seed = cfg.Seed
	if rt.seed == 0 && cfg.Fault != nil {
		rt.seed = cfg.Fault.Seed()
	}
	if rt.seed == 0 {
		rt.seed = 0x9E3779B97F4A7C15
	}
	return rt
}

// Config returns the configuration the runtime was created with (after
// defaulting).
func (rt *Runtime) Config() Config { return rt.cfg }

// NewThread registers and returns a per-goroutine transaction descriptor.
// A Thread must not be used concurrently from multiple goroutines.
func (rt *Runtime) NewThread() *Thread {
	th := &Thread{rt: rt}
	rt.mu.Lock()
	th.rngState = mixSeed(rt.seed, uint64(len(rt.threads)))
	rt.threads = append(rt.threads, th)
	snap := append([]*Thread(nil), rt.threads...)
	rt.thSnap.Store(&snap)
	rt.mu.Unlock()
	return th
}

// quiesce waits until no thread is still inside a speculative transaction
// that began at or before commit point cs. This is the privatization-safety
// guarantee of the Draft C++ TM Specification, implemented as in libitm:
// after a writer commits (e.g. a mini-transaction acquiring an item lock,
// Figure 1a), doomed concurrent transactions may still hold eager in-place
// writes to the now-private data; the committer must wait for them to finish
// (validate-fail and roll back) before its thread touches that data
// nontransactionally.
func (rt *Runtime) quiesce(cs uint64) {
	snapP := rt.thSnap.Load()
	if snapP == nil {
		return
	}
	for _, th := range *snapP {
		spins := 0
		for {
			a := th.activeSince.Load()
			if a == 0 || a > cs {
				break
			}
			spins++
			if spins > 32 {
				runtime.Gosched()
			}
		}
	}
}

// orecFor maps a location id to its ownership record.
func (rt *Runtime) orecFor(id uint64) *orec {
	return &rt.orecs[(id*0x9E3779B97F4A7C15)>>32&rt.omask]
}
