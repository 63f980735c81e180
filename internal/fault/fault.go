// Package fault is a deterministic, seed-reproducible fault-injection layer.
//
// The repository's robustness incidents (DESIGN.md: privatization races
// losing keys during hash expansion, publication-order bugs in assoc
// expansion, maintenance-thread starvation) were all found by accident. This
// package exists so they are provoked on purpose: subsystems expose named
// injection points, and an Injector decides — as a pure function of a seed
// and the per-point hit ordinal — whether each hit fires.
//
// Determinism contract: given the same seed and rates, the n-th hit of a
// given point always makes the same fire/no-fire decision. Goroutine
// interleaving remains the scheduler's, so a failing run is reproduced
// statistically, but the fault schedule itself is exactly replayable from the
// seed (the torture harness prints it on every failure).
//
// The package is a leaf: stm, slab, engine and server all import it, never
// the reverse. A nil *Injector means "no faults" and costs one pointer
// comparison at each site.
package fault

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Point names one injection site. The catalogue below is the complete set
// wired into the repository; sites pass their own constant, so adding a point
// is adding a constant plus one call.
type Point string

const (
	// STM barrier and commit points (internal/stm/tx.go). Fires only inside
	// speculative transactions — serial-irrevocable attempts are never
	// aborted (that would violate irrevocability), only delayed.
	STMReadAbort   Point = "stm.read.abort"   // forced abort in the read barrier
	STMReadDelay   Point = "stm.read.delay"   // scheduler yield in the read barrier
	STMWriteAbort  Point = "stm.write.abort"  // forced abort in the write barrier
	STMWriteDelay  Point = "stm.write.delay"  // scheduler yield in the write barrier
	STMCommitFail  Point = "stm.commit.fail"  // spurious validation failure at commit
	STMCommitDelay Point = "stm.commit.delay" // scheduler yield entering commit
	STMSerialDelay Point = "stm.serial.delay" // delay acquiring the serial lock

	// Slab allocator (internal/slab): a failed allocation forces the caller
	// onto the eviction path, creating memory pressure on demand.
	SlabAllocFail Point = "slab.alloc.fail"

	// Maintenance threads (internal/engine): delayed wakeups and
	// mid-expansion stalls, the schedules implicated in the lost-key and
	// starvation incidents.
	MaintHashDelay   Point = "maint.hash.delay"   // hash maintainer wakes late
	MaintExpandStall Point = "maint.expand.stall" // stall between expansion bulk moves
	MaintSlabDelay   Point = "maint.slab.delay"   // slab rebalancer wakes late

	// Server/protocol transport (internal/server): connection-level faults.
	ConnDrop       Point = "server.conn.drop"       // close the connection mid-command
	ConnShortRead  Point = "server.conn.shortread"  // deliver one byte per read
	ConnShortWrite Point = "server.conn.shortwrite" // truncate a reply mid-write
	ConnSlow       Point = "server.conn.slow"       // slow-client byte trickling
)

// StmPoints are the points meaningful for a transactional runtime.
func StmPoints() []Point {
	return []Point{STMReadAbort, STMReadDelay, STMWriteAbort, STMWriteDelay,
		STMCommitFail, STMCommitDelay, STMSerialDelay}
}

// EnginePoints are the points meaningful for any engine branch (lock-based
// branches included).
func EnginePoints() []Point {
	return []Point{SlabAllocFail, MaintHashDelay, MaintExpandStall, MaintSlabDelay}
}

// ServerPoints are the connection-level points.
func ServerPoints() []Point {
	return []Point{ConnDrop, ConnShortRead, ConnShortWrite, ConnSlow}
}

// rateScale converts a probability to the integer threshold compared against
// a 16-bit hash slice.
const rateScale = 1 << 16

type pointState struct {
	threshold uint64        // fire when hash16(seed, point, ordinal) < threshold
	hits      atomic.Uint64 // times the point was reached
	fires     atomic.Uint64 // times it fired
	hash      uint64        // precomputed point-name hash
}

// Injector decides, deterministically from its seed, which hits of which
// points fire. Configure points before the run; Fire is safe for concurrent
// use. The zero rate (point not configured) never fires.
type Injector struct {
	seed   uint64
	armed  atomic.Bool
	mu     sync.Mutex // guards points map shape (reads use the snapshot)
	points map[Point]*pointState
	snap   atomic.Pointer[map[Point]*pointState]
}

// New returns an armed injector with no points configured.
func New(seed uint64) *Injector {
	in := &Injector{seed: seed, points: make(map[Point]*pointState)}
	in.armed.Store(true)
	in.publish()
	return in
}

// Seed returns the seed the injector was built from.
func (in *Injector) Seed() uint64 { return in.seed }

func (in *Injector) publish() {
	snap := make(map[Point]*pointState, len(in.points))
	for p, st := range in.points {
		snap[p] = st
	}
	in.snap.Store(&snap)
}

// Set configures p to fire with probability rate in [0,1]. Setting 0 removes
// the point.
func (in *Injector) Set(p Point, rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if rate == 0 {
		delete(in.points, p)
	} else {
		st := in.points[p]
		if st == nil {
			st = &pointState{hash: strHash(string(p))}
			in.points[p] = st
		}
		st.threshold = uint64(rate * rateScale)
	}
	in.publish()
}

// Rate returns the configured probability of p.
func (in *Injector) Rate(p Point) float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.points[p]
	if st == nil {
		return 0
	}
	return float64(st.threshold) / rateScale
}

// Arm enables firing (the initial state).
func (in *Injector) Arm() { in.armed.Store(true) }

// Disarm stops all points from firing without losing configuration or
// counters — used between a chaos phase and its invariant-check phase.
func (in *Injector) Disarm() { in.armed.Store(false) }

// Fire reports whether this hit of p triggers its fault. The decision is
// mix(seed, point, ordinal) < threshold, so a given (seed, rates) pair
// replays the same per-point schedule.
func (in *Injector) Fire(p Point) bool {
	if in == nil {
		return false
	}
	snap := in.snap.Load()
	st := (*snap)[p]
	if st == nil {
		return false
	}
	n := st.hits.Add(1)
	if !in.armed.Load() {
		return false
	}
	if mix(in.seed^st.hash, n)&(rateScale-1) >= st.threshold {
		return false
	}
	st.fires.Add(1)
	return true
}

// Fired returns how many times p has fired.
func (in *Injector) Fired(p Point) uint64 {
	if in == nil {
		return 0
	}
	snap := in.snap.Load()
	st := (*snap)[p]
	if st == nil {
		return 0
	}
	return st.fires.Load()
}

// Hits returns how many times p was reached.
func (in *Injector) Hits(p Point) uint64 {
	if in == nil {
		return 0
	}
	snap := in.snap.Load()
	st := (*snap)[p]
	if st == nil {
		return 0
	}
	return st.hits.Load()
}

// TotalFired sums fires across all points.
func (in *Injector) TotalFired() uint64 {
	if in == nil {
		return 0
	}
	snap := in.snap.Load()
	var n uint64
	for _, st := range *snap {
		n += st.fires.Load()
	}
	return n
}

// Summary renders the schedule and its activity, one point per line, sorted
// by point name — the reproduction recipe printed with every torture failure.
func (in *Injector) Summary() string {
	if in == nil {
		return "fault: disabled"
	}
	snap := in.snap.Load()
	points := make([]Point, 0, len(*snap))
	for p := range *snap {
		points = append(points, p)
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	out := fmt.Sprintf("fault: seed=%d\n", in.seed)
	for _, p := range points {
		st := (*snap)[p]
		out += fmt.Sprintf("  %-24s rate=%.4f hits=%d fired=%d\n",
			p, float64(st.threshold)/rateScale, st.hits.Load(), st.fires.Load())
	}
	return out
}

// RandomSchedule builds an injector whose rates over the given points are
// themselves drawn deterministically from the seed: each point is dropped
// with probability ~1/3 (so schedules differ in shape, not just intensity)
// and otherwise enabled with a rate in (0, maxRate].
func RandomSchedule(seed uint64, points []Point, maxRate float64) *Injector {
	in := New(seed)
	r := seed
	for _, p := range points {
		r = mix(r, strHash(string(p)))
		if r%3 == 0 {
			continue // dropped point
		}
		frac := float64(r>>32&0xFFFF) / 0xFFFF // (0,1]-ish
		rate := maxRate * (0.1 + 0.9*frac)
		in.Set(p, rate)
	}
	return in
}

// ---------------------------------------------------------------------------
// hashing

// mix is splitmix64 over the pair (a, b): statistically strong, allocation
// free, and a pure function of its inputs.
func mix(a, b uint64) uint64 {
	x := a + b*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
