package protocol

import (
	"bufio"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
)

// connBufSize is the pooled per-connection read/write buffer size. It
// matches the bufio default the classic transport has always used, so the
// two transports frame identically; only the lifetime differs.
const connBufSize = 4096

// maxRetainedScratch bounds each scratch buffer kept between commands: what
// one oversized command (a megabyte set, a 100-key get) grew is dropped when
// the command is done, so it is neither pinned by a long-lived connection nor
// parked in the pool.
const maxRetainedScratch = 64 << 10

// scratch is the request path's reusable memory. Parsing, the engine's
// results and the reply are all built in it, so a command allocates nothing
// once it has grown to the connection's traffic. Everything in it is dead
// when the command that filled it has replied.
type scratch struct {
	fields [][]byte      // the command line, split in place
	line   []byte        // a command line longer than the read buffer
	key    []byte        // a storage command's key, saved before its body is read
	body   []byte        // a set's data block, or a binary frame's body
	get    engine.GetBuf // results and the value arena
	run    []quietGet    // a pipelined quiet-get run, its keys ...
	keys   [][]byte      // ... as GetMulti takes them ...
	runKey []byte        // ... and their bytes
	bufs   net.Buffers   // a gathered reply
	hdrs   []byte        // its VALUE headers
}

// trim drops what one oversized command grew (see maxRetainedScratch).
func (s *scratch) trim() {
	if cap(s.fields) > maxRetainedScratch/64 { // entries, not bytes
		s.fields = nil
	}
	if cap(s.line) > maxRetainedScratch {
		s.line = nil
	}
	if cap(s.body) > maxRetainedScratch {
		s.body = nil
	}
	if cap(s.hdrs) > maxRetainedScratch {
		s.hdrs = nil
	}
	s.get.Trim()
}

// connBufs is what a connection holds only while it is being served: the
// bufio pair and the request scratch.
type connBufs struct {
	r *bufio.Reader
	w *bufio.Writer
	scratch
}

// The pooled transport's buffer economy: a connection owns a buffer set only
// from the moment a worker picks it up to the moment it parks back in the
// poller. The steady-state number of live sets is therefore bounded by the
// worker count, not the connection count — that is where the event-loop
// transport's RSS win at 100k idle connections comes from.
var (
	bufsPool = sync.Pool{New: func() any {
		return &connBufs{
			r: bufio.NewReaderSize(nil, connBufSize),
			w: bufio.NewWriterSize(io.Discard, connBufSize),
		}
	}}

	// bufInUse counts connections currently holding a buffer set; it is
	// exact, and the leak-guard contract is that it returns to zero when
	// every connection is drained. bufIdle approximates the sets parked in
	// the pool: Put increments it, a pool-hit Get decrements it, and the GC
	// emptying the pool leaves it high until the next Get cycle — it is a
	// capacity hint, not an accounting identity.
	bufInUse atomic.Int64
	bufIdle  atomic.Int64
)

// BufferGauges reports the pooled-buffer gauges surfaced as
// conn_buffers_inuse / conn_buffers_idle in `stats` and /debug/vars.
func BufferGauges() (inuse, idle int64) {
	return bufInUse.Load(), bufIdle.Load()
}

// AttachBuffers equips a pooled connection with a buffer set from the
// process-wide pool. No-op when buffers are already attached or the
// connection is not pooled (NewConn buffers are permanent).
func (c *Conn) AttachBuffers() {
	if !c.pooled || c.r != nil {
		return
	}
	b := bufsPool.Get().(*connBufs)
	b.r.Reset(c.fbr)
	b.w.Reset(c.transport)
	c.bufs, c.r, c.w, c.sc = b, b.r, b.w, &b.scratch
	bufInUse.Add(1)
	for {
		n := bufIdle.Load()
		if n <= 0 || bufIdle.CompareAndSwap(n, n-1) {
			break
		}
	}
}

// ReleaseBuffers returns the connection's buffer set to the pool. A
// connection may only release when no request bytes are buffered and all
// replies are flushed; with force false the call refuses (returns false)
// otherwise. force true is the teardown path: pending bytes are abandoned
// with the connection.
func (c *Conn) ReleaseBuffers(force bool) bool {
	if !c.pooled || c.r == nil {
		return true
	}
	if !force && (c.r.Buffered() > 0 || c.w.Buffered() > 0) {
		return false
	}
	c.r.Reset(eofReader{})
	c.w.Reset(io.Discard)
	c.sc.trim()
	bufsPool.Put(c.bufs)
	c.bufs, c.r, c.w, c.sc = nil, nil, nil, nil
	bufInUse.Add(-1)
	bufIdle.Add(1)
	return true
}

// eofReader is what a pooled bufio.Reader points at between owners, so a
// use-after-release bug reads EOF instead of another connection's stream.
type eofReader struct{}

func (eofReader) Read([]byte) (int, error) { return 0, io.EOF }
