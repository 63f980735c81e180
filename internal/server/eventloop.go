package server

import (
	"errors"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/poller"
	"repro/internal/protocol"
	"repro/internal/txobs"
)

// The event-loop transport splits the front end into two tiers:
//
//	poller (1 goroutine)          workers (bounded pool)
//	  epoll owns idle sockets  →    per-shard queues + shared queue
//	  readiness → enqueue      →    burst: serve commands while input
//	                                 is buffered, flush, park again
//
// A parked connection costs one epoll registration and one small struct —
// no goroutine, no buffers (the bufio pair is pooled and attached only for
// the burst), no engine worker (workers own those; a connection borrows its
// server's handle per burst). Connections whose last command routed to a
// single TM shard are queued to the worker bound to that shard, so a
// transaction's orec table and slab arena stay with one OS thread most of
// the time (the thread/data-mapping argument from Pasqualin et al.; with
// affinity off, the depth-1 benchmark's median latency doubles, see
// EXPERIMENTS.md "One transport"); multi-shard commands (multi-key get,
// flush_all, stats, wire transactions) ride the shared queue any worker may
// drain.

// evConn states. Transitions: idle→queued (poller readiness, CAS-guarded so
// duplicate events collapse), queued→running (worker pickup), running→idle
// (park). teardown may run from any state and is idempotent.
const (
	evIdle int32 = iota
	evQueued
	evRunning
)

type evConn struct {
	sc  *servConn
	pc  *protocol.Conn
	tok poller.Token
	fd  int // raw fd for non-consuming readiness probes; -1 if unavailable

	state      atomic.Int32
	lastActive atomic.Int64 // unix nanos of last burst end (idle reaping)
	enqueuedNs atomic.Int64 // stamp set by enqueue, swapped out at pickup
	closed     atomic.Bool
}

// evStats is the transport's telemetry block. It is always on: everything
// here is amortized per dispatch or per burst, never per command, so the
// steady-state cost is two timestamps and two histogram increments per
// burst — noise next to one syscall. Counters and histograms reset on
// `stats reset`; queue depths and overflow length are live gauges.
type evStats struct {
	spills   atomic.Uint64   // enqueues that spilled to the overflow list
	dispatch txobs.Histogram // queued→running latency
	burstOps txobs.Histogram // commands served per burst

	// busyNs[i] accumulates worker i's time inside bursts; baseNs and
	// winStart snapshot the reset point so the busy fraction is computed
	// over the current window only.
	busyNs   []atomic.Int64
	baseNs   []atomic.Int64
	winStart atomic.Int64
}

type evLoop struct {
	s *Server
	p poller.Poller

	// affineQ[i] feeds the worker bound to shard-class i; a connection whose
	// affinity is shard s is queued to affineQ[s % len(affineQ)]. With
	// workers ≥ shards this is exactly one queue per shard.
	affineQ []chan *evConn
	sharedQ chan *evConn

	stop     chan struct{}
	stopOnce sync.Once

	workerWG sync.WaitGroup
	reapWG   sync.WaitGroup

	mu       sync.Mutex
	conns    map[poller.Token]*evConn
	overflow []*evConn // unbounded spill when every queue is full; take drains it first

	stats evStats
}

const (
	evAffineQueueCap = 256
	evSharedQueueCap = 1024
	evMaxWorkers     = 32
	// evBurstMaxOps caps how many commands one connection may run per burst
	// before it yields the worker, so a pipelining client cannot starve the
	// rest of the pool.
	evBurstMaxOps = 128
)

// newPoller is a test seam: the fallback-poller tests rebind it so the whole
// transport can be exercised over the portable implementation on linux too.
var newPoller = poller.New

func newEvLoop(s *Server) (*evLoop, error) {
	// One worker per shard queue, plus two that serve only the shared queue
	// (multi-shard commands, and connections whose shard queue is full).
	affine := min(s.cache.NumShards(), evMaxWorkers)
	workers := min(affine+2, evMaxWorkers)
	ev := &evLoop{
		s:       s,
		sharedQ: make(chan *evConn, evSharedQueueCap),
		stop:    make(chan struct{}),
		conns:   make(map[poller.Token]*evConn),
	}
	ev.affineQ = make([]chan *evConn, affine)
	for i := range ev.affineQ {
		ev.affineQ[i] = make(chan *evConn, evAffineQueueCap)
	}
	ev.stats.busyNs = make([]atomic.Int64, workers)
	ev.stats.baseNs = make([]atomic.Int64, workers)
	ev.stats.winStart.Store(time.Now().UnixNano())
	p, err := newPoller(ev.ready)
	if err != nil {
		return nil, err
	}
	ev.p = p
	for i := 0; i < workers; i++ {
		ev.workerWG.Add(1)
		go ev.workerLoop(i)
	}
	if s.cfg.IdleTimeout > 0 {
		ev.reapWG.Add(1)
		go ev.reapLoop()
	}
	return ev, nil
}

// adopt takes ownership of a freshly accepted connection: builds its
// protocol state (buffers detached, worker unbound), registers it with the
// poller, and arms the first readiness event. Called from the accept loop
// after the connection is registered in s.conns and counted in s.wg.
func (ev *evLoop) adopt(sc *servConn) {
	s := ev.s
	pc := protocol.NewConn(nil, sc)
	pc.SetControl(sc)
	pc.SetConnErrors(&s.errs)
	pc.SetShardTracking(s.cache.NumShards() > 1)
	fd := -1
	if scc, ok := sc.Conn.(syscall.Conn); ok {
		if rc, cerr := scc.SyscallConn(); cerr == nil {
			_ = rc.Control(func(f uintptr) { fd = int(f) })
		}
	}
	c := &evConn{sc: sc, pc: pc, fd: fd}
	c.lastActive.Store(time.Now().UnixNano())
	pc.SetTransport(ev)

	tok, err := ev.p.Add(sc.Conn)
	if err == nil {
		c.tok = tok
		ev.mu.Lock()
		ev.conns[tok] = c
		ev.mu.Unlock()
		err = ev.p.Arm(tok)
	}
	if err != nil {
		// Raced with shutdown, or a connection the poller cannot watch.
		ev.teardown(c, err)
	}
}

// ready is the poller's readiness callback. The idle→queued CAS makes
// duplicate or stale events (possible around Remove) harmless.
func (ev *evLoop) ready(tok poller.Token) {
	ev.mu.Lock()
	c := ev.conns[tok]
	ev.mu.Unlock()
	if c == nil {
		return
	}
	if !c.state.CompareAndSwap(evIdle, evQueued) {
		return
	}
	ev.enqueue(c)
}

// enqueue hands a queued connection to the worker pool. It never blocks:
// workers themselves call it (Arm's probe synthesizes readiness inline, and
// the fairness cap requeues a connection mid-stream), so a blocking send on a
// full queue could deadlock the pool against itself. When both the affine and
// shared queues are full the connection spills to an unbounded overflow list.
func (ev *evLoop) enqueue(c *evConn) {
	c.enqueuedNs.Store(time.Now().UnixNano())
	if a := c.pc.Affinity(); a >= 0 && len(ev.affineQ) > 0 {
		// A full affine queue spills onward rather than stalling readiness
		// delivery behind one hot shard.
		select {
		case ev.affineQ[a%len(ev.affineQ)] <- c:
			return
		default:
		}
	}
	select {
	case ev.sharedQ <- c:
		return
	default:
	}
	// No lost wakeup: a worker blocked in take would have completed one of
	// the sends above, so reaching here means every worker is busy and will
	// pass through take (which drains the overflow first) again.
	ev.stats.spills.Add(1)
	ev.mu.Lock()
	ev.overflow = append(ev.overflow, c)
	ev.mu.Unlock()
}

func (ev *evLoop) popOverflow() *evConn {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	if len(ev.overflow) == 0 {
		return nil
	}
	c := ev.overflow[0]
	ev.overflow[0] = nil
	ev.overflow = ev.overflow[1:]
	return c
}

func (ev *evLoop) workerLoop(i int) {
	defer ev.workerWG.Done()
	// One engine worker per pool worker, not per connection: a worker handle
	// registers per-shard stat blocks for its lifetime, so per-connection
	// handles would accrete forever at 100k conns; per-pool-worker handles
	// also keep a shard's transactions on the same few OS threads.
	w := ev.s.cache.NewWorker()
	var myQ chan *evConn
	if i < len(ev.affineQ) {
		myQ = ev.affineQ[i]
	}
	for {
		c := ev.take(myQ)
		if c == nil {
			return
		}
		start := time.Now()
		// The enqueue stamp is swapped out so a connection that stays with
		// a worker across the fairness-cap requeue gets a fresh stamp each
		// time it actually waits in a queue.
		if enq := c.enqueuedNs.Swap(0); enq > 0 {
			if d := start.UnixNano() - enq; d > 0 {
				ev.stats.dispatch.Observe(time.Duration(d))
			}
		}
		ev.burst(c, w)
		ev.stats.busyNs[i].Add(int64(time.Since(start)))
	}
}

// take returns the next connection to serve, preferring this worker's
// affine queue, then the shared queue; it only honors stop once both are
// drained (the graceful-drain contract: queued requests finish).
func (ev *evLoop) take(myQ chan *evConn) *evConn {
	if c := ev.popOverflow(); c != nil {
		return c
	}
	if myQ != nil {
		select {
		case c := <-myQ:
			return c
		case c := <-ev.sharedQ:
			return c
		default:
		}
		select {
		case c := <-myQ:
			return c
		case c := <-ev.sharedQ:
			return c
		case <-ev.stop:
			return nil
		}
	}
	select {
	case c := <-ev.sharedQ:
		return c
	default:
	}
	select {
	case c := <-ev.sharedQ:
		return c
	case <-ev.stop:
		return nil
	}
}

// pendingInput reports whether a read on fd would make progress: data, EOF,
// and real errors all count (the burst's read surfaces whichever it is);
// only EAGAIN means "nothing there". fd < 0 (a transport without a raw fd)
// always reports true, degrading to blocking reads.
func pendingInput(fd int) bool {
	if fd < 0 {
		return true
	}
	var b [1]byte
	_, _, err := syscall.Recvfrom(fd, b[:], syscall.MSG_PEEK)
	return err != syscall.EAGAIN && err != syscall.EWOULDBLOCK
}

// burst serves one readiness event: attach pooled buffers, lend the worker's
// engine handle, serve commands until input is exhausted, flush, release the
// buffers, and re-arm the poller. The connection must never be parked with
// buffered input — the poller only sees kernel readiness, so userspace
// leftovers would strand the connection forever.
func (ev *evLoop) burst(c *evConn, w *engine.Worker) {
	c.state.Store(evRunning)
	if c.closed.Load() || ev.s.draining.Load() {
		ev.teardown(c, errDraining)
		return
	}
	pc := c.pc
	// The poller's at-least-once contract allows duplicates: the same bytes
	// can produce both an edge event and an Arm-probe event, so a wakeup may
	// find nothing to read. A blocking first read would pin this worker for a
	// full ReadTimeout, so probe first and re-park for the cost of one
	// syscall — no buffers were attached yet.
	if pc.InputBuffered() == 0 && !pendingInput(c.fd) {
		c.state.Store(evIdle)
		if aerr := ev.p.Arm(c.tok); aerr != nil {
			ev.teardown(c, aerr)
		}
		return
	}
	pc.SetWorker(w)
	pc.AttachBuffers()
	var err error
	ops := 0
	defer func() { ev.stats.burstOps.Record(uint64(ops)) }()
	for {
		if err = pc.ServeOne(); err != nil {
			break
		}
		ops++
		if pc.InputBuffered() > 0 {
			if ops < evBurstMaxOps {
				continue
			}
			// Fairness cap hit with commands still in the userspace buffer.
			// The poller cannot see those bytes, so parking would strand
			// them: flush replies and hand the connection back to the queue
			// explicitly, buffers still attached.
			if err = pc.Flush(); err != nil {
				break
			}
			c.lastActive.Store(time.Now().UnixNano())
			c.state.Store(evQueued)
			ev.enqueue(c)
			return
		}
		if err = pc.Flush(); err != nil {
			break
		}
		// Replies are flushed; if the next request has already arrived, keep
		// the burst going instead of paying a park/re-arm/dispatch round trip.
		// At the fairness cap, park instead: Arm's probe will
		// re-synthesize the event and the connection rejoins the queue tail.
		if ops >= evBurstMaxOps || !pendingInput(c.fd) {
			break
		}
	}
	c.lastActive.Store(time.Now().UnixNano())
	if err != nil {
		ev.teardown(c, err)
		return
	}
	pc.ReleaseBuffers(false)
	if ev.s.draining.Load() {
		ev.teardown(c, errDraining)
		return
	}
	c.state.Store(evIdle)
	if aerr := ev.p.Arm(c.tok); aerr != nil {
		ev.teardown(c, aerr)
	}
}

// expire tears down a PARKED connection from outside the worker pool (the
// idle reaper, the shutdown sweep). The idle→queued CAS steals the
// connection from the poller exactly like a readiness event would, so no
// worker can concurrently own its buffers; if the CAS fails the connection
// is queued, running, or already dying, and its current owner is
// responsible for its fate.
func (ev *evLoop) expire(c *evConn, err error) {
	if c.state.CompareAndSwap(evIdle, evQueued) {
		ev.teardown(c, err)
	}
}

// teardown closes and unregisters a connection. Callers must own the
// connection exclusively (its worker mid-burst, expire's CAS winner, or the
// post-drain final sweep); the closed CAS additionally makes duplicate calls
// from the same shutdown path harmless. Exactly one caller releases the
// MaxConns slot and wg count.
func (ev *evLoop) teardown(c *evConn, err error) {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	if c.tok != 0 {
		_ = ev.p.Remove(c.tok)
		ev.mu.Lock()
		delete(ev.conns, c.tok)
		ev.mu.Unlock()
	}
	// Best-effort flush of batched replies written before the failure (as
	// protocol.Conn.Serve does before returning); then dropping the protocol
	// state drops any open wire transaction — the implicit txabort on
	// disconnect.
	_ = c.pc.Flush()
	c.pc.ReleaseBuffers(true)
	c.sc.Conn.Close()
	s := ev.s
	s.mu.Lock()
	delete(s.conns, c.sc)
	s.mu.Unlock()
	if s.sem != nil {
		<-s.sem
	}
	if errors.Is(err, protocol.ErrQuit) || errors.Is(err, io.EOF) {
		err = nil
	}
	s.countErr(err)
	s.wg.Done()
}

// reapLoop enforces IdleTimeout for parked connections. A parked connection
// has no read in flight for a deadline to expire, so the loop sweeps instead.
func (ev *evLoop) reapLoop() {
	defer ev.reapWG.Done()
	idle := ev.s.cfg.IdleTimeout
	tick := idle / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > 5*time.Second {
		tick = 5 * time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-ev.stop:
			return
		case <-t.C:
		}
		cut := time.Now().Add(-idle).UnixNano()
		ev.mu.Lock()
		stale := make([]*evConn, 0, 8)
		for _, c := range ev.conns {
			if c.state.Load() == evIdle && c.lastActive.Load() < cut {
				stale = append(stale, c)
			}
		}
		ev.mu.Unlock()
		for _, c := range stale {
			// os.ErrDeadlineExceeded is a net.Error timeout, so countErr
			// files the reap under conn_errors_timeout.
			ev.expire(c, os.ErrDeadlineExceeded)
		}
	}
}

// shutdown drains the transport for Server.Close. Order matters:
//
//  1. close(stop) first, so workers stop picking up new connections once
//     their queues run dry.
//  2. p.Close stops readiness delivery (enqueue never blocks, so the poller
//     goroutine can always reach the close check).
//  3. Sweep every PARKED connection via expire (CAS-stolen from the
//     poller). Queued and running connections stay with the workers.
//  4. Workers drain their queues (take prefers work over stop), finish
//     in-flight bursts under the drain deadline, see draining at the next
//     park point, and exit through teardown.
//  5. With every worker joined, a final unconditional sweep catches
//     connections whose queue entry was dropped by the stop/queue select
//     race — at this point no concurrent owner can exist.
func (ev *evLoop) shutdown() {
	ev.stopOnce.Do(func() { close(ev.stop) })
	ev.p.Close()
	for _, c := range ev.snapshot() {
		ev.expire(c, errDraining)
	}
	ev.workerWG.Wait()
	ev.reapWG.Wait()
	for _, c := range ev.snapshot() {
		ev.teardown(c, errDraining)
	}
}

// evLoop implements protocol.TransportStats for `stats eventloop`.
var _ protocol.TransportStats = (*evLoop)(nil)

// EventLoopSnapshot renders the transport's telemetry: queue-depth gauges,
// the overflow-spill counter, dispatch/burst histograms, per-worker busy
// fractions over the current reset window, and the poller's counters.
func (ev *evLoop) EventLoopSnapshot() protocol.EventLoopSnapshot {
	s := protocol.EventLoopSnapshot{
		Workers:        len(ev.stats.busyNs),
		AffineCap:      evAffineQueueCap,
		SharedDepth:    len(ev.sharedQ),
		SharedCap:      cap(ev.sharedQ),
		OverflowSpills: ev.stats.spills.Load(),
		Dispatch:       ev.stats.dispatch.Snapshot(),
		BurstOps:       ev.stats.burstOps.Snapshot(),
		Poller:         ev.p.Counters(),
	}
	s.AffineDepth = make([]int, len(ev.affineQ))
	for i, q := range ev.affineQ {
		s.AffineDepth[i] = len(q)
	}
	ev.mu.Lock()
	s.OverflowLen = len(ev.overflow)
	s.Conns = len(ev.conns)
	ev.mu.Unlock()
	s.WorkerBusy = make([]float64, len(ev.stats.busyNs))
	if elapsed := time.Now().UnixNano() - ev.stats.winStart.Load(); elapsed > 0 {
		for i := range ev.stats.busyNs {
			f := float64(ev.stats.busyNs[i].Load()-ev.stats.baseNs[i].Load()) / float64(elapsed)
			// A burst in flight across the window edge can push the ratio
			// out of range; clamp rather than report nonsense.
			if f < 0 {
				f = 0
			}
			if f > 1 {
				f = 1
			}
			s.WorkerBusy[i] = f
		}
	}
	return s
}

// ResetTransportCounters implements the `stats reset` half of the
// TransportStats contract: counters and histograms clear, the busy window
// restarts, gauges (queue depths, overflow length, conns) are untouched.
func (ev *evLoop) ResetTransportCounters() {
	ev.stats.spills.Store(0)
	ev.stats.dispatch.Reset()
	ev.stats.burstOps.Reset()
	for i := range ev.stats.busyNs {
		ev.stats.baseNs[i].Store(ev.stats.busyNs[i].Load())
	}
	ev.stats.winStart.Store(time.Now().UnixNano())
	ev.p.ResetCounters()
}

func (ev *evLoop) snapshot() []*evConn {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	out := make([]*evConn, 0, len(ev.conns))
	for _, c := range ev.conns {
		out = append(out, c)
	}
	return out
}
