package protocol

import (
	"encoding/json"
	"fmt"

	"repro/internal/poller"
	"repro/internal/txobs"
)

// EventLoopSnapshot is one transport's telemetry at a point in time. The
// server's event loop implements TransportStats by filling this in; a Conn
// served without one (an in-process caller) never has a TransportStats
// installed, which `stats eventloop` renders as "eventloop 0".
type EventLoopSnapshot struct {
	Workers int `json:"workers"`
	Conns   int `json:"conns"`

	// Queue gauges: instantaneous depths, not counters — they survive a
	// stats reset by construction.
	AffineDepth []int `json:"affine_depth"`
	AffineCap   int   `json:"affine_cap"`
	SharedDepth int   `json:"shared_depth"`
	SharedCap   int   `json:"shared_cap"`
	OverflowLen int   `json:"overflow_len"`

	// OverflowSpills counts enqueues that found both the affine and shared
	// queues full and spilled to the unbounded overflow list — the transport's
	// saturation signal (previously a silent append).
	OverflowSpills uint64 `json:"overflow_spills"`

	// Dispatch is the queued→running latency in nanoseconds; BurstOps is the
	// commands-served-per-burst distribution.
	Dispatch txobs.HistSnapshot `json:"dispatch_ns"`
	BurstOps CountSnapshot      `json:"burst_ops"`

	// WorkerBusy is each pool worker's busy fraction (time inside bursts /
	// wall time) since start or the last reset.
	WorkerBusy []float64 `json:"worker_busy"`

	// Poller is the readiness poller's delivery counters.
	Poller poller.Counters `json:"poller"`
}

// CountSnapshot is a histogram snapshot whose values are counts, not
// durations. It marshals as count/mean/p50/p95/p99/max, the field names of
// its `stats eventloop` line, instead of txobs's *_ns names.
type CountSnapshot txobs.HistSnapshot

// MarshalJSON implements json.Marshaler.
func (s CountSnapshot) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Count uint64 `json:"count"`
		Mean  int64  `json:"mean"`
		P50   int64  `json:"p50"`
		P95   int64  `json:"p95"`
		P99   int64  `json:"p99"`
		Max   int64  `json:"max"`
	}{s.Count, int64(s.Mean), int64(s.P50), int64(s.P95), int64(s.P99), int64(s.Max)})
}

// TransportStats is implemented by transports that expose queue/dispatch
// telemetry (the server's event loop). The server installs it per
// connection via SetTransport; `stats eventloop` reads it and `stats reset`
// resets its counters (gauges survive).
type TransportStats interface {
	EventLoopSnapshot() EventLoopSnapshot
	// ResetTransportCounters zeroes the transport's counters and histograms
	// and restarts the busy-fraction window. Gauges (queue depths, overflow
	// length, connection count) are unaffected.
	ResetTransportCounters()
}

// SetTransport installs the transport's telemetry source for the stats
// surface (nil for transports without one).
func (c *Conn) SetTransport(ts TransportStats) { c.tstats = ts }

// histLine renders one histogram snapshot as a single STAT line. unit suffixes
// the quantile field names ("_ns" for durations, "" for dimensionless).
func (c *Conn) histLine(name, unit string, s txobs.HistSnapshot) {
	fmt.Fprintf(c.w, "STAT %s count=%d mean%s=%d p50%s=%d p95%s=%d p99%s=%d max%s=%d\r\n",
		name, s.Count, unit, s.Mean, unit, s.P50, unit, s.P95, unit, s.P99, unit, s.Max)
}

// cmdStatsEventLoop reports the transport telemetry (`stats eventloop`).
func (c *Conn) cmdStatsEventLoop() error {
	if c.tstats == nil {
		fmt.Fprintf(c.w, "STAT eventloop 0\r\n")
		return c.reply("END\r\n")
	}
	s := c.tstats.EventLoopSnapshot()
	fmt.Fprintf(c.w, "STAT eventloop 1\r\n")
	fmt.Fprintf(c.w, "STAT workers %d\r\n", s.Workers)
	fmt.Fprintf(c.w, "STAT conns %d\r\n", s.Conns)
	fmt.Fprintf(c.w, "STAT shared_depth %d\r\n", s.SharedDepth)
	fmt.Fprintf(c.w, "STAT shared_cap %d\r\n", s.SharedCap)
	fmt.Fprintf(c.w, "STAT overflow_len %d\r\n", s.OverflowLen)
	fmt.Fprintf(c.w, "STAT event_overflow_spills %d\r\n", s.OverflowSpills)
	for i, d := range s.AffineDepth {
		fmt.Fprintf(c.w, "STAT affine_%d_depth %d\r\n", i, d)
	}
	fmt.Fprintf(c.w, "STAT affine_cap %d\r\n", s.AffineCap)
	for i, b := range s.WorkerBusy {
		fmt.Fprintf(c.w, "STAT worker_%d_busy %.3f\r\n", i, b)
	}
	c.histLine("dispatch_ns", "_ns", s.Dispatch)
	c.histLine("burst_ops", "", txobs.HistSnapshot(s.BurstOps))
	fmt.Fprintf(c.w, "STAT poller_wakeups %d\r\n", s.Poller.Wakeups)
	fmt.Fprintf(c.w, "STAT poller_probes %d\r\n", s.Poller.Probes)
	fmt.Fprintf(c.w, "STAT poller_synthesized %d\r\n", s.Poller.Synthesized)
	return c.reply("END\r\n")
}
