// Package server provides the TCP front end: it accepts connections, parks
// them in a readiness poller (internal/poller: epoll on linux, a portable
// fallback elsewhere) and serves ready ones in bursts from a bounded pool of
// workers, each holding one engine worker, speaking the memcached protocols
// via internal/protocol. The pool stands in for memcached's libevent worker
// threads; the synchronization structure under study (worker threads sharing
// the cache with maintenance threads) is identical. See eventloop.go.
//
// The front end is hardened against the failure modes the torture harness
// injects: per-connection read/write deadlines, idle-connection reaping, a
// max-connections limit enforced as accept backpressure (the listener simply
// stops accepting, as memcached's -c limit does), graceful drain on Close
// (in-flight commands finish, then connections close), and per-cause
// connection-error accounting surfaced through the `stats` command.
package server

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/mcstats"
	"repro/internal/protocol"
)

// Config parameterizes a Server. The zero value disables every limit but the
// ReadTimeout (default 30s) and the DrainTimeout (default 5s).
type Config struct {
	// Addr is the listen address, e.g. "127.0.0.1:0".
	Addr string
	// MaxConns bounds concurrent connections; at the limit the accept loop
	// blocks (backpressure) instead of accepting and failing. 0 = unlimited.
	MaxConns int
	// IdleTimeout reaps connections that sit idle between commands.
	IdleTimeout time.Duration
	// ReadTimeout bounds reading the remainder of a command once its first
	// byte has arrived (defeats slow-client trickling of a command body), and
	// any read a burst makes between commands (default 30s).
	ReadTimeout time.Duration
	// WriteTimeout bounds each write of a reply.
	WriteTimeout time.Duration
	// DrainTimeout is the grace Close gives in-flight commands before their
	// connections are cut (default 5s).
	DrainTimeout time.Duration
	// Fault, when non-nil, injects connection-level faults (drops, short
	// reads/writes, slow trickling) into every connection's transport.
	Fault *fault.Injector

	// Deprecated: every server runs the event loop; the field is ignored.
	EventLoop bool
}

func (c Config) withDefaults() Config {
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.ReadTimeout == 0 {
		// A worker is lent to a connection for the duration of a command; an
		// unbounded mid-command read would let one trickling client starve
		// the pool, so the read is always bounded.
		c.ReadTimeout = 30 * time.Second
	}
	return c
}

// Server is a running memcached front end.
type Server struct {
	cache *engine.Cache
	cfg   Config
	ln    net.Listener
	errs  mcstats.ConnErrors

	sem    chan struct{} // MaxConns slots; nil = unlimited
	stopCh chan struct{}

	mu     sync.Mutex
	conns  map[*servConn]struct{}
	closed bool

	draining atomic.Bool

	ev *evLoop

	wg sync.WaitGroup
}

// Listen starts serving cache on addr with default (unlimited) settings. The
// cache's maintenance threads must already be started.
func Listen(cache *engine.Cache, addr string) (*Server, error) {
	return ListenConfig(cache, Config{Addr: addr})
}

// ListenConfig starts serving cache with the given front-end configuration.
func ListenConfig(cache *engine.Cache, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cache:  cache,
		cfg:    cfg,
		ln:     ln,
		conns:  make(map[*servConn]struct{}),
		stopCh: make(chan struct{}),
	}
	if cfg.MaxConns > 0 {
		s.sem = make(chan struct{}, cfg.MaxConns)
	}
	if s.ev, err = newEvLoop(s); err != nil {
		ln.Close()
		return nil, err
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// ConnErrors exposes the per-cause connection-error counters.
func (s *Server) ConnErrors() *mcstats.ConnErrors { return &s.errs }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		if s.sem != nil {
			// Take the connection slot before accepting: at MaxConns the
			// kernel queues further dials and clients feel backpressure
			// rather than an accept-then-reject.
			select {
			case s.sem <- struct{}{}:
			case <-s.stopCh:
				return
			}
		}
		conn, err := s.ln.Accept()
		if err != nil {
			if s.sem != nil {
				<-s.sem
			}
			return // listener closed
		}
		sc := &servConn{Conn: conn, srv: s}
		s.mu.Lock()
		if s.closed {
			// Accepted concurrently with Close after its sweep: tear down
			// here, never registered.
			s.mu.Unlock()
			conn.Close()
			if s.sem != nil {
				<-s.sem
			}
			return
		}
		// Registration and wg.Add must share one critical section with the
		// closed check: registering first and Adding after the unlock would
		// let Close sweep the map and pass wg.Wait before this connection is
		// counted, leaking it past shutdown.
		s.conns[sc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.ev.adopt(sc)
	}
}

// countErr classifies why a connection's Serve returned, instead of
// swallowing it: deadline expiries, protocol-fatal framing, transport I/O.
func (s *Server) countErr(err error) {
	if err == nil || errors.Is(err, errDraining) {
		return
	}
	if s.draining.Load() {
		// Teardown deadlines during drain are the server's own doing.
		return
	}
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		s.errs.Timeout.Add(1)
	case errors.Is(err, protocol.ErrProtocol):
		s.errs.Protocol.Add(1)
	default:
		s.errs.IO.Add(1)
	}
}

// Close stops accepting and drains: parked connections close immediately,
// connections inside a command get DrainTimeout to finish it (and are then
// refused further commands). Idempotent — a second Close returns nil without
// waiting again.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining.Store(true)
	close(s.stopCh)
	err := s.ln.Close()
	// Idle connections have no blocked read to wake; the transport sweeps
	// its parked connections in shutdown below.
	now := time.Now()
	for sc := range s.conns {
		if sc.busy.Load() {
			sc.Conn.SetDeadline(now.Add(s.cfg.DrainTimeout))
		}
	}
	s.mu.Unlock()
	s.ev.shutdown()
	s.wg.Wait()
	return err
}

// errDraining stops a connection's serve loop between commands at shutdown.
var errDraining = errors.New("server: draining")

// servConn wraps a client connection with deadline management, busy-state
// tracking for graceful drain, and transport-level fault injection. It is the
// protocol.Control for its own protocol.Conn.
type servConn struct {
	net.Conn
	srv  *Server
	busy atomic.Bool // inside a command (between CommandStarted and CommandDone)

	// cmdArmed is whether the current command has had its read deadline
	// (see armReadDeadline); owned by the worker serving the connection.
	cmdArmed bool
}

// BeforeCommand refuses new commands while draining.
func (sc *servConn) BeforeCommand() error {
	if sc.srv.draining.Load() {
		return errDraining
	}
	return nil
}

// CommandStarted marks the connection busy.
func (sc *servConn) CommandStarted() {
	sc.busy.Store(true)
	sc.cmdArmed = false
}

// CommandDone marks the connection idle again.
func (sc *servConn) CommandDone() {
	sc.busy.Store(false)
}

// armReadDeadline runs when a read is about to reach the socket — not per
// command: the commands of a pipeline that are already in the read buffer
// never get here, and they are most of them.
//
// A connection never waits for the next command in a read (the poller owns
// idle time and a reaper enforces IdleTimeout), so a read between commands is
// bounded by the ReadTimeout even if the readiness event was a bare RDHUP.
// Inside a command the ReadTimeout bounds the rest of it: it is armed at the
// command's first read and not again, or a client trickling a body byte by
// byte would extend it forever. The drain deadline Close imposes is left
// alone.
func (sc *servConn) armReadDeadline() {
	s := sc.srv
	if s.draining.Load() {
		return
	}
	busy := sc.busy.Load()
	if busy {
		if sc.cmdArmed {
			return
		}
		sc.cmdArmed = true
	}
	sc.Conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	if busy && s.draining.Load() {
		// Close began in between and its deadline may be the one just
		// overwritten: impose it again.
		sc.Conn.SetDeadline(time.Now().Add(s.cfg.DrainTimeout))
	}
}

func (sc *servConn) Read(p []byte) (int, error) {
	if in := sc.srv.cfg.Fault; in != nil {
		if in.Fire(fault.ConnDrop) {
			sc.Conn.Close()
			return 0, net.ErrClosed
		}
		if in.Fire(fault.ConnSlow) {
			time.Sleep(time.Millisecond)
		}
		if len(p) > 1 && in.Fire(fault.ConnShortRead) {
			p = p[:1]
		}
	}
	sc.armReadDeadline()
	return sc.Conn.Read(p)
}

func (sc *servConn) Write(p []byte) (int, error) {
	if in := sc.srv.cfg.Fault; in != nil {
		if in.Fire(fault.ConnDrop) {
			sc.Conn.Close()
			return 0, net.ErrClosed
		}
		if in.Fire(fault.ConnSlow) {
			time.Sleep(time.Millisecond)
		}
		if len(p) > 1 && in.Fire(fault.ConnShortWrite) {
			n, err := sc.Conn.Write(p[:len(p)/2])
			if err != nil {
				return n, err
			}
			return n, io.ErrShortWrite
		}
	}
	if t := sc.srv.cfg.WriteTimeout; t > 0 {
		sc.Conn.SetWriteDeadline(time.Now().Add(t))
	}
	return sc.Conn.Write(p)
}

// WriteBuffers writes a gathered response in one writev-style call
// (net.Buffers uses writev on platforms that have it), arming the write
// deadline and consulting fault injection once for the whole batch rather
// than once per slice. The protocol layer discovers this method by interface
// assertion and uses it for large multi-get responses.
func (sc *servConn) WriteBuffers(bufs net.Buffers) (int64, error) {
	if in := sc.srv.cfg.Fault; in != nil {
		if in.Fire(fault.ConnDrop) {
			sc.Conn.Close()
			return 0, net.ErrClosed
		}
		if in.Fire(fault.ConnSlow) {
			time.Sleep(time.Millisecond)
		}
		if len(bufs) > 1 && in.Fire(fault.ConnShortWrite) {
			// Deliver only the first slice of the batch, then fail the write:
			// the torture harness's short-write fault, batch flavored.
			n, err := sc.Conn.Write(bufs[0])
			if err != nil {
				return int64(n), err
			}
			return int64(n), io.ErrShortWrite
		}
	}
	if t := sc.srv.cfg.WriteTimeout; t > 0 {
		sc.Conn.SetWriteDeadline(time.Now().Add(t))
	}
	return bufs.WriteTo(sc.Conn)
}
