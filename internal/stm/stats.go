package stm

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Stats collects runtime-wide transaction statistics. The column names match
// Tables 1-4 of the paper: Transactions (commits), In-Flight Switch (relaxed
// transactions that hit unsafe code on a branch and switched to serial),
// Start Serial (transactions that began in serial mode), Abort Serial
// (transactions serialized for progress after consecutive aborts).
type Stats struct {
	Starts         atomic.Uint64 // attempts, including retries
	Commits        atomic.Uint64
	Aborts         atomic.Uint64
	InFlightSwitch atomic.Uint64
	StartSerial    atomic.Uint64
	AbortSerial    atomic.Uint64
	SerialCommits  atomic.Uint64

	// HTM emulation (§5): capacity aborts and lock-fallback events.
	HTMCapacityAborts atomic.Uint64
	HTMFallbacks      atomic.Uint64

	// Retries counts Tx.Retry condition-synchronization waits.
	Retries atomic.Uint64

	// Read-only fast path (Props.ReadOnly): commits that validated by
	// timestamp extension with zero orec acquisitions, and attempts that hit a
	// write barrier and upgraded to the normal path.
	ROFastCommits atomic.Uint64
	ROUpgrades    atomic.Uint64

	// Starvation-watchdog actions (see watchdog.go): threads escalated to
	// randomized backoff, and threads escalated to serial-irrevocable
	// execution for guaranteed progress.
	WatchdogBackoffs   atomic.Uint64
	WatchdogSerializes atomic.Uint64
}

// Snapshot is a point-in-time copy of Stats plus per-thread breakdowns.
type Snapshot struct {
	Starts         uint64
	Commits        uint64
	Aborts         uint64
	InFlightSwitch uint64
	StartSerial    uint64
	AbortSerial    uint64
	SerialCommits  uint64

	HTMCapacityAborts uint64
	HTMFallbacks      uint64
	Retries           uint64

	ROFastCommits uint64
	ROUpgrades    uint64

	WatchdogBackoffs   uint64
	WatchdogSerializes uint64

	ThreadCommits []uint64
	ThreadAborts  []uint64
}

// Stats returns a snapshot of the runtime's counters.
func (rt *Runtime) Stats() Snapshot {
	s := Snapshot{
		Starts:         rt.stats.Starts.Load(),
		Commits:        rt.stats.Commits.Load(),
		Aborts:         rt.stats.Aborts.Load(),
		InFlightSwitch: rt.stats.InFlightSwitch.Load(),
		StartSerial:    rt.stats.StartSerial.Load(),
		AbortSerial:    rt.stats.AbortSerial.Load(),
		SerialCommits:  rt.stats.SerialCommits.Load(),

		HTMCapacityAborts: rt.stats.HTMCapacityAborts.Load(),
		HTMFallbacks:      rt.stats.HTMFallbacks.Load(),
		Retries:           rt.stats.Retries.Load(),

		ROFastCommits: rt.stats.ROFastCommits.Load(),
		ROUpgrades:    rt.stats.ROUpgrades.Load(),

		WatchdogBackoffs:   rt.stats.WatchdogBackoffs.Load(),
		WatchdogSerializes: rt.stats.WatchdogSerializes.Load(),
	}
	rt.mu.Lock()
	for _, th := range rt.threads {
		s.ThreadCommits = append(s.ThreadCommits, th.commits.Load())
		s.ThreadAborts = append(s.ThreadAborts, th.aborts.Load())
	}
	rt.mu.Unlock()
	return s
}

// ResetStats zeroes the counters (between experiment phases).
func (rt *Runtime) ResetStats() {
	rt.stats.Starts.Store(0)
	rt.stats.Commits.Store(0)
	rt.stats.Aborts.Store(0)
	rt.stats.InFlightSwitch.Store(0)
	rt.stats.StartSerial.Store(0)
	rt.stats.AbortSerial.Store(0)
	rt.stats.SerialCommits.Store(0)
	rt.stats.HTMCapacityAborts.Store(0)
	rt.stats.HTMFallbacks.Store(0)
	rt.stats.Retries.Store(0)
	rt.stats.ROFastCommits.Store(0)
	rt.stats.ROUpgrades.Store(0)
	rt.stats.WatchdogBackoffs.Store(0)
	rt.stats.WatchdogSerializes.Store(0)
	rt.mu.Lock()
	for _, th := range rt.threads {
		th.commits.Store(0)
		th.aborts.Store(0)
	}
	rt.mu.Unlock()
}

// Sub returns s - base, field-wise (per-thread slices are dropped): the delta
// accumulated between two snapshots.
func (s Snapshot) Sub(base Snapshot) Snapshot {
	return Snapshot{
		Starts:         s.Starts - base.Starts,
		Commits:        s.Commits - base.Commits,
		Aborts:         s.Aborts - base.Aborts,
		InFlightSwitch: s.InFlightSwitch - base.InFlightSwitch,
		StartSerial:    s.StartSerial - base.StartSerial,
		AbortSerial:    s.AbortSerial - base.AbortSerial,
		SerialCommits:  s.SerialCommits - base.SerialCommits,
		ROFastCommits:  s.ROFastCommits - base.ROFastCommits,
		ROUpgrades:     s.ROUpgrades - base.ROUpgrades,

		WatchdogBackoffs:   s.WatchdogBackoffs - base.WatchdogBackoffs,
		WatchdogSerializes: s.WatchdogSerializes - base.WatchdogSerializes,
	}
}

// Add returns the field-wise sum of s and o — merging per-shard runtime
// snapshots into one engine-level view. Per-thread breakdowns concatenate
// (each shard's runtime numbers its own threads).
func (s Snapshot) Add(o Snapshot) Snapshot {
	s.Starts += o.Starts
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	s.InFlightSwitch += o.InFlightSwitch
	s.StartSerial += o.StartSerial
	s.AbortSerial += o.AbortSerial
	s.SerialCommits += o.SerialCommits
	s.HTMCapacityAborts += o.HTMCapacityAborts
	s.HTMFallbacks += o.HTMFallbacks
	s.Retries += o.Retries
	s.ROFastCommits += o.ROFastCommits
	s.ROUpgrades += o.ROUpgrades
	s.WatchdogBackoffs += o.WatchdogBackoffs
	s.WatchdogSerializes += o.WatchdogSerializes
	s.ThreadCommits = append(append([]uint64(nil), s.ThreadCommits...), o.ThreadCommits...)
	s.ThreadAborts = append(append([]uint64(nil), s.ThreadAborts...), o.ThreadAborts...)
	return s
}

// AbortsPerCommit returns the ratio the paper quotes in §4 ("NOrec worker
// threads aborted once per 5 commits, Lazy 14 times per commit, ...").
func (s Snapshot) AbortsPerCommit() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(s.Commits)
}

// AbortRateVariance returns the variance across threads of per-thread abort
// rate (aborts / (aborts+commits)); §4 uses its spread to diagnose starvation.
func (s Snapshot) AbortRateVariance() float64 {
	var rates []float64
	for i := range s.ThreadCommits {
		tot := s.ThreadCommits[i] + s.ThreadAborts[i]
		if tot == 0 {
			continue
		}
		rates = append(rates, float64(s.ThreadAborts[i])/float64(tot))
	}
	if len(rates) == 0 {
		return 0
	}
	var mean float64
	for _, r := range rates {
		mean += r
	}
	mean /= float64(len(rates))
	var v float64
	for _, r := range rates {
		v += (r - mean) * (r - mean)
	}
	v /= float64(len(rates))
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// TableRow formats the snapshot as a row of Tables 1-4: transactions,
// in-flight switches, start-serial, abort-serial (with percentages of total
// transactions, as the paper prints them).
func (s Snapshot) TableRow(branch string) string {
	pct := func(n uint64) string {
		if s.Commits == 0 {
			return "0"
		}
		return fmt.Sprintf("%d (%.1f%%)", n, 100*float64(n)/float64(s.Commits))
	}
	return fmt.Sprintf("%-16s %10d  %-18s %-18s %d",
		branch, s.Commits, pct(s.InFlightSwitch), pct(s.StartSerial), s.AbortSerial)
}
