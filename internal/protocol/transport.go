package protocol

import (
	"fmt"

	"repro/internal/poller"
	"repro/internal/txobs"
)

// EventLoopSnapshot is one transport's telemetry at a point in time. The
// server's event loop implements TransportStats by filling this in; a Conn
// served without one (an in-process caller) never has a TransportStats
// installed, which `stats eventloop` renders as "eventloop 0".
type EventLoopSnapshot struct {
	Workers int
	Conns   int

	// Queue gauges: instantaneous depths, not counters — they survive a
	// stats reset by construction.
	AffineDepth []int
	AffineCap   int
	SharedDepth int
	SharedCap   int
	OverflowLen int

	// OverflowSpills counts enqueues that found both the affine and shared
	// queues full and spilled to the unbounded overflow list — the transport's
	// saturation signal (previously a silent append).
	OverflowSpills uint64

	// Dispatch is the queued→running latency in nanoseconds; BurstOps is the
	// commands-served-per-burst distribution (counts, not durations).
	Dispatch txobs.HistSnapshot
	BurstOps txobs.HistSnapshot

	// WorkerBusy is each pool worker's busy fraction (time inside bursts /
	// wall time) since start or the last reset.
	WorkerBusy []float64

	// Poller is the readiness poller's delivery counters.
	Poller poller.Counters
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
	c.histLine("burst_ops", "", s.BurstOps)
	fmt.Fprintf(c.w, "STAT poller_wakeups %d\r\n", s.Poller.Wakeups)
	fmt.Fprintf(c.w, "STAT poller_probes %d\r\n", s.Poller.Probes)
	fmt.Fprintf(c.w, "STAT poller_synthesized %d\r\n", s.Poller.Synthesized)
	return c.reply("END\r\n")
}
