//go:build linux

package poller

import (
	"fmt"
	"net"
	"os"
	"sync"
	"syscall"
)

func newPlatform(onReady func(Token)) (Poller, error) {
	return NewEpoll(onReady)
}

// wakeToken is reserved for the self-pipe that interrupts epoll_wait on
// Close. Connection tokens start at 1, so it can never collide.
const wakeToken = Token(0)

// epollReg is one registered connection. armed flips once: the first Arm
// installs the edge-triggered mask and every later Arm is syscall-free on
// the epoll side (just the readiness probe).
type epollReg struct {
	fd    int
	armed bool
}

type epollPoller struct {
	counters
	epfd int
	// epf/epRC wrap epfd as a runtime-pollable file: the wait loop parks in
	// the runtime netpoller (RawConn.Read) instead of blocking an OS thread
	// inside epoll_wait. On GOMAXPROCS=1 this matters enormously — an M that
	// returns from a blocking epoll_wait must win the P back from whatever
	// goroutine holds it, which under load takes a sysmon preemption tick
	// (~10-20ms added to every dispatch); a netpoller-parked goroutine is
	// simply made runnable like any other.
	epf     *os.File
	epRC    syscall.RawConn
	wakeR   int
	wakeW   int
	onReady func(Token)

	mu     sync.Mutex
	regs   map[Token]*epollReg
	next   uint64
	closed bool

	loopDone chan struct{}
}

// NewEpoll builds the epoll-backed poller. Exported (rather than hidden
// behind New) so tests can exercise it explicitly next to the fallback.
func NewEpoll(onReady func(Token)) (Poller, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("poller: epoll_create1: %w", err)
	}
	var pipefds [2]int
	if err := syscall.Pipe2(pipefds[:], syscall.O_CLOEXEC|syscall.O_NONBLOCK); err != nil {
		syscall.Close(epfd)
		return nil, fmt.Errorf("poller: pipe2: %w", err)
	}
	// Mark the epoll fd non-blocking and hand it to the runtime poller (epoll
	// fds nest: the inner instance reports EPOLLIN when its ready list is
	// non-empty). waitLoop drains with a zero-timeout epoll_wait and parks in
	// the netpoller between batches.
	if err := syscall.SetNonblock(epfd, true); err != nil {
		syscall.Close(epfd)
		syscall.Close(pipefds[0])
		syscall.Close(pipefds[1])
		return nil, fmt.Errorf("poller: set epoll fd nonblocking: %w", err)
	}
	epf := os.NewFile(uintptr(epfd), "epoll")
	epRC, err := epf.SyscallConn()
	if err != nil {
		epf.Close()
		syscall.Close(pipefds[0])
		syscall.Close(pipefds[1])
		return nil, fmt.Errorf("poller: wrap epoll fd: %w", err)
	}
	p := &epollPoller{
		epfd:     epfd,
		epf:      epf,
		epRC:     epRC,
		wakeR:    pipefds[0],
		wakeW:    pipefds[1],
		onReady:  onReady,
		regs:     make(map[Token]*epollReg),
		loopDone: make(chan struct{}),
	}
	// The wake pipe is level-triggered and never drained until Close, so a
	// single write is enough to break out of any future epoll_wait.
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN}
	packToken(&ev, wakeToken)
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, p.wakeR, &ev); err != nil {
		p.closeFDs()
		return nil, fmt.Errorf("poller: register wake pipe: %w", err)
	}
	go p.waitLoop()
	return p, nil
}

func (p *epollPoller) closeFDs() {
	if p.epf != nil {
		p.epf.Close() // deregisters from the runtime poller too
	} else {
		syscall.Close(p.epfd)
	}
	syscall.Close(p.wakeR)
	syscall.Close(p.wakeW)
}

// packToken splits a 64-bit token across the Fd and Pad fields of the epoll
// user-data union (EpollEvent has no 64-bit data field in package syscall).
func packToken(ev *syscall.EpollEvent, tok Token) {
	ev.Fd = int32(uint32(tok))
	ev.Pad = int32(uint32(tok >> 32))
}

func unpackToken(ev *syscall.EpollEvent) Token {
	return Token(uint64(uint32(ev.Fd)) | uint64(uint32(ev.Pad))<<32)
}

// connFD extracts the file descriptor without duplicating it. The fd stays
// owned by the net.Conn; the caller must Remove before closing the conn so
// no reused fd number is left registered.
func connFD(conn net.Conn) (int, error) {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return -1, fmt.Errorf("poller: %T does not expose a file descriptor", conn)
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return -1, err
	}
	fd := -1
	cerr := rc.Control(func(f uintptr) { fd = int(f) })
	if cerr != nil {
		return -1, cerr
	}
	return fd, nil
}

func (p *epollPoller) Add(conn net.Conn) (Token, error) {
	fd, err := connFD(conn)
	if err != nil {
		return 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, ErrClosed
	}
	p.next++
	tok := Token(p.next)
	// Registered with no event bits: epoll delivers nothing until the first
	// Arm installs the edge-triggered mask with EPOLL_CTL_MOD.
	var ev syscall.EpollEvent
	packToken(&ev, tok)
	if err := syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_ADD, fd, &ev); err != nil {
		return 0, fmt.Errorf("poller: epoll_ctl add: %w", err)
	}
	p.regs[tok] = &epollReg{fd: fd}
	return tok, nil
}

// Arm installs the edge-triggered mask on first call, then probes the socket
// with a non-consuming MSG_PEEK. The probe is what makes parking race-free:
// an edge that fired while the owner still held the connection (its CAS
// found the state busy, so the event was dropped) left its bytes in the
// kernel buffer, and edge-triggered epoll will not fire for them again — the
// probe on the next Arm finds them and synthesizes the callback.
func (p *epollPoller) Arm(tok Token) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	reg, ok := p.regs[tok]
	if !ok {
		p.mu.Unlock()
		return fmt.Errorf("poller: arm of unregistered token %d", tok)
	}
	if !reg.armed {
		// syscall.EPOLLET is declared as a negative int (bit 31); mask it
		// into the uint32 events field explicitly.
		const epollET = uint32(1) << 31
		ev := syscall.EpollEvent{Events: syscall.EPOLLIN | syscall.EPOLLRDHUP | epollET}
		packToken(&ev, tok)
		if err := syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_MOD, reg.fd, &ev); err != nil {
			p.mu.Unlock()
			return fmt.Errorf("poller: epoll_ctl mod: %w", err)
		}
		reg.armed = true
	}
	fd := reg.fd
	p.mu.Unlock()

	// Probe outside the lock: onReady may block (bounded-queue backpressure)
	// and must never do so while holding mu. The fd is non-blocking, so the
	// peek returns EAGAIN immediately when nothing is pending; data, EOF
	// (n==0, err==nil) and real errors (including EBADF from a concurrently
	// torn-down conn) all count as readiness — the owner's read surfaces
	// whichever it is, and its token map drops callbacks for removed tokens.
	var buf [1]byte
	p.probes.Add(1)
	n, _, err := syscall.Recvfrom(fd, buf[:], syscall.MSG_PEEK)
	if err == syscall.EAGAIN || err == syscall.EWOULDBLOCK {
		return nil
	}
	_ = n
	p.mu.Lock()
	_, live := p.regs[tok]
	closed := p.closed
	p.mu.Unlock()
	if closed || !live {
		return nil
	}
	p.synthesized.Add(1)
	p.wakeups.Add(1)
	p.onReady(tok)
	return nil
}

func (p *epollPoller) Remove(tok Token) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	reg, ok := p.regs[tok]
	if !ok {
		return nil
	}
	delete(p.regs, tok)
	// EBADF/ENOENT are fine: the conn may already be closed by the peer path.
	if err := syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_DEL, reg.fd, nil); err != nil &&
		err != syscall.EBADF && err != syscall.ENOENT {
		return fmt.Errorf("poller: epoll_ctl del: %w", err)
	}
	return nil
}

func (p *epollPoller) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	// Wake the wait loop; it observes closed and exits.
	_, _ = syscall.Write(p.wakeW, []byte{0})
	<-p.loopDone
	p.closeFDs()
	return nil
}

func (p *epollPoller) waitLoop() {
	defer close(p.loopDone)
	events := make([]syscall.EpollEvent, 128)
	// Zero-timeout drain inside the RawConn.Read callback: returning false
	// parks this goroutine in the runtime netpoller until the epoll fd reports
	// readiness. The runtime resets fd readiness before waiting, so the
	// callback must always attempt the drain first. The callback and its
	// results are made once: built inside the loop they would be three heap
	// objects per wakeup.
	var n int
	var werr error
	drain := func(fd uintptr) bool {
		n, werr = syscall.EpollWait(int(fd), events, 0)
		if werr == syscall.EINTR {
			werr = nil
			return false
		}
		return n > 0 || werr != nil
	}
	for {
		rerr := p.epRC.Read(drain)
		if rerr != nil || werr != nil {
			// The epoll fd was closed under us (Close won a race) or broke;
			// either way delivery is over.
			return
		}
		for i := 0; i < n; i++ {
			tok := unpackToken(&events[i])
			if tok == wakeToken {
				p.mu.Lock()
				closed := p.closed
				p.mu.Unlock()
				if closed {
					return
				}
				continue
			}
			p.mu.Lock()
			_, live := p.regs[tok]
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return
			}
			if live {
				p.wakeups.Add(1)
				p.onReady(tok)
			}
		}
	}
}
