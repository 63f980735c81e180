// Package poller provides readiness notification for a large set of idle
// network connections without dedicating a goroutine (and its stack) to each.
//
// The server's event-loop transport registers every accepted connection here
// and parks it while it has no buffered input. When the peer writes (or
// disconnects), the poller invokes the ready callback with the connection's
// Token and the transport hands the connection to an execution worker.
//
// Two implementations exist:
//
//   - linux: a single epoll instance driven by raw syscalls. The first Arm
//     installs an edge-triggered mask (EPOLLIN|EPOLLRDHUP|EPOLLET) once;
//     every later Arm is just a non-consuming MSG_PEEK probe that synthesizes
//     an event if input is already pending. Steady-state cost per served
//     request is therefore one probe syscall, not two epoll_ctl round trips.
//     One goroutine blocks in epoll_wait for the whole server.
//   - everywhere else (and on linux via NewFallback, for tests): a parked
//     goroutine per armed connection that waits inside syscall.RawConn.Read
//     without consuming bytes. This still rides the runtime netpoller, so it
//     costs a goroutine per *armed* connection but zero buffer bytes; it
//     exists so the transport builds and behaves identically off linux.
//
// Tokens are monotonically increasing and never reused, which makes stale
// readiness events (delivered after Remove for a connection whose fd number
// the kernel has already recycled) detectable by the owner's token map.
package poller

import (
	"errors"
	"net"
	"sync/atomic"
)

// Token identifies one registered connection. Tokens are never reused for
// the lifetime of a Poller.
type Token uint64

// ErrClosed is returned by Add/Arm/Remove after Close.
var ErrClosed = errors.New("poller: closed")

// A Poller owns readiness notification for registered connections.
//
// The contract is at-least-once with duplicates allowed: after Add, the
// connection is registered but silent; Arm enables delivery and GUARANTEES a
// callback if the connection is already readable (data, EOF, peer reset —
// anything that would make a Read return). Implementations may deliver
// additional callbacks at any time while the token is registered (the epoll
// implementation is edge-triggered and fires on every new arrival, including
// mid-burst), so the owner must deduplicate — the transport does this with a
// per-connection state machine whose idle→queued transition is a CAS. The
// owner must call Arm every time it parks a connection: that is what closes
// the race between "checked for buffered input" and "went idle" (the Arm
// probe catches bytes that arrived in between). Remove unregisters; it is
// safe to call with events in flight (the owner must tolerate a late
// callback for a removed token).
//
// The ready callback runs on a poller-owned goroutine and may block briefly
// (e.g. on a bounded queue send); while it blocks, delivery of further
// events stalls, which is the transport's backpressure.
type Poller interface {
	// Add registers conn and returns its token. conn must implement
	// syscall.Conn (all *net.TCPConn do). No events are delivered until Arm.
	Add(conn net.Conn) (Token, error)
	// Arm enables readiness callbacks for the token and probes for input
	// that is already pending, synthesizing a callback if so. Call after
	// every park.
	Arm(Token) error
	// Remove unregisters the token. Idempotent.
	Remove(Token) error
	// Close stops event delivery and releases poller resources. It does not
	// close registered connections; the owner sweeps those itself.
	Close() error
	// Counters reports the cumulative delivery statistics.
	Counters() Counters
	// ResetCounters zeroes the counters ("stats reset" semantics).
	ResetCounters()
}

// New returns the best poller for this platform: epoll on linux, the
// goroutine fallback elsewhere. onReady is invoked when an armed connection
// becomes (or already is) readable; duplicates are possible.
func New(onReady func(Token)) (Poller, error) {
	return newPlatform(onReady)
}

// Counters are a poller's cumulative delivery statistics. Both built-in
// implementations report the same semantics (the fallback-parity test
// enforces it), so dashboards read identically on and off linux:
//
//   - Wakeups counts every onReady delivery, whatever its origin — the
//     wait loop (epoll) or a parked waiter (fallback), plus synthesized
//     deliveries.
//   - Probes counts Arm-time MSG_PEEK readiness probes (one per Arm call
//     that reaches the probe).
//   - Synthesized counts the subset of Wakeups that originated from an Arm
//     probe finding input already pending — the events edge-triggered
//     epoll would otherwise have lost.
type Counters struct {
	Wakeups     uint64
	Probes      uint64
	Synthesized uint64
}

// counters is the shared atomic implementation embedded by both pollers.
type counters struct {
	wakeups     atomic.Uint64
	probes      atomic.Uint64
	synthesized atomic.Uint64
}

func (c *counters) Counters() Counters {
	return Counters{
		Wakeups:     c.wakeups.Load(),
		Probes:      c.probes.Load(),
		Synthesized: c.synthesized.Load(),
	}
}

func (c *counters) ResetCounters() {
	c.wakeups.Store(0)
	c.probes.Store(0)
	c.synthesized.Store(0)
}
