package txobs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two buckets. Bucket b counts values
// with bits.Len64(v) == b, i.e. v in [2^(b-1), 2^b); bucket 0 is exactly
// zero. 48 buckets reach ~78 hours of nanoseconds.
const histBuckets = 48

// Histogram is the repository's one log-bucketed histogram, safe for
// concurrent Record and read. Quantiles are resolved to a bucket's upper
// bound, so they are upper estimates with at most 2x resolution — the trade
// that makes recording three atomic adds. Latencies go in through Observe;
// dimensionless counts (the event loop's commands per burst) go in through
// Record, and their snapshot fields carry the count where the names say
// nanoseconds.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one duration in nanoseconds; a negative one counts as 0.
func (h *Histogram) Observe(d time.Duration) {
	h.Record(uint64(max(d, 0)))
}

// Record records one value.
func (h *Histogram) Record(v uint64) {
	b := bits.Len64(v)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// bucketUpper returns the exclusive upper bound of bucket b.
func bucketUpper(b int) uint64 {
	if b == 0 {
		return 1
	}
	return uint64(1) << b
}

// HistSnapshot is a point-in-time copy of a histogram with derived quantiles.
type HistSnapshot struct {
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Snapshot copies the histogram and computes p50/p95/p99/max. The copy is not
// atomic with respect to concurrent Observe calls; each field is individually
// consistent.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Max = time.Duration(h.max.Load())
	if s.Count > 0 {
		s.Mean = time.Duration(h.sum.Load() / s.Count)
	}
	var buckets [histBuckets]uint64
	var total uint64
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
		total += buckets[i]
	}
	q := func(p float64) time.Duration {
		if total == 0 {
			return 0
		}
		want := uint64(p * float64(total))
		if want == 0 {
			want = 1
		}
		var cum uint64
		for b := 0; b < histBuckets; b++ {
			cum += buckets[b]
			if cum >= want {
				up := bucketUpper(b)
				if m := h.max.Load(); up > m {
					up = m // never report past the observed max
				}
				return time.Duration(up)
			}
		}
		return s.Max
	}
	s.P50, s.P95, s.P99 = q(0.50), q(0.95), q(0.99)
	return s
}

// Phase identifies an STM latency phase.
type Phase uint8

const (
	// PhaseFirstAbort measures source-transaction entry to its first abort.
	PhaseFirstAbort Phase = iota
	// PhaseBackoff measures one contention-manager backoff wait.
	PhaseBackoff
	// PhaseSerialWait measures waiting to acquire the serial lock's write side.
	PhaseSerialWait
	// PhaseCommit measures a successful commit's validation+publish protocol.
	PhaseCommit

	phaseN
)

var phaseNames = [phaseN]string{"first_abort", "backoff", "serial_wait", "commit"}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}
