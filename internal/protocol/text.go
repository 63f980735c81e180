// Package protocol implements the memcached wire protocols — the full text
// protocol and the binary protocol subset memslap --binary exercises — on top
// of an engine.Worker. The server hands each connection a Conn; Serve
// auto-detects the protocol from the first byte, as memcached does.
package protocol

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/mcstats"
	"repro/internal/txobs"
	"repro/internal/txtrace"
)

// Version is the version string reported to clients; the paper's study uses
// memcached 1.4.15, so we advertise a lineage-compatible tag.
const Version = "1.4.15-tm-repro"

// ErrQuit reports a clean client-requested shutdown of the connection.
var ErrQuit = errors.New("protocol: quit")

// ErrProtocol marks connection-fatal framing violations (a frame truncated
// mid-body, an unparseable binary header): errors the server counts as
// protocol-caused rather than transport-caused. Recoverable mistakes get a
// CLIENT_ERROR / status reply instead and never surface here.
var ErrProtocol = errors.New("protocol: malformed frame")

// MaxKeyLen is the protocol's 250-byte key limit.
const MaxKeyLen = 250

// MaxBodyLen bounds any value/body a client may declare (8 MiB, ample for
// the 1 MiB slab-page limit); larger claims are drained, not allocated.
const MaxBodyLen = 8 << 20

// Control lets the transport owner (the server) interpose on command
// boundaries: arming idle/read deadlines, tracking busy state for graceful
// drain, refusing new commands at shutdown. All methods run on the
// connection's own goroutine.
type Control interface {
	// BeforeCommand runs before blocking for the next command. A non-nil
	// error stops serving (Serve returns it).
	BeforeCommand() error
	// CommandStarted runs once the first byte of a command has arrived.
	CommandStarted()
	// CommandDone runs after the command's reply has been written.
	CommandDone()
}

// buffersWriter is implemented by transports (the server's connection
// wrapper) that can put a gathered response on the wire as one writev-style
// write, without copying the slices together first.
type buffersWriter interface {
	WriteBuffers(bufs net.Buffers) (int64, error)
}

// Conn serves one client connection.
type Conn struct {
	worker *engine.Worker
	r      *bufio.Reader
	w      *bufio.Writer
	bw     buffersWriter // non-nil when the transport supports gathered writes

	// sc is the request scratch (see bufpool.go). It lives and dies with the
	// buffers: a classic connection owns one for life, a pooled one borrows
	// it with its buffer set (bufs), so a parked connection holds neither.
	sc   *scratch
	bufs *connBufs

	// transport and fbr let pooled connections re-attach buffers: the bufio
	// pair is Reset onto these on every AttachBuffers. Classic (NewConn)
	// connections keep their buffers for life and never touch them.
	transport io.ReadWriter
	fbr       *flushBeforeRead
	pooled    bool

	// trackShard/affinity record which TM shard the last command routed to
	// (-1 for multi-shard or shard-agnostic commands). The event-loop
	// transport reads Affinity after each burst to pick the request queue.
	trackShard bool
	affinity   int

	ctl      Control
	connErrs *mcstats.ConnErrors
	tstats   TransportStats

	// spans is the connection's request-span buffer (nil when the transport
	// owner did not wire tracing). One Begin/End pair brackets every
	// dispatched command; with tracing off, Begin is a single atomic load.
	spans *txtrace.ConnSpans

	// tx is the connection's open wire transaction (nil outside txbegin/
	// txcommit). It lives entirely in this struct — no engine resource is
	// held — so dropping the connection drops the transaction.
	tx *txState
}

// NewConn wraps a transport with a protocol handler bound to a worker.
//
// Replies are batched: they accumulate in the write buffer while further
// pipelined commands are already readable and go to the transport in one
// write when the pipeline drains (see flushBeforeRead), when the buffer
// fills, or — for large multi-get responses on capable transports — as one
// gathered writev-style write.
func NewConn(worker *engine.Worker, rw io.ReadWriter) *Conn {
	c := newConnBase(worker, rw)
	c.w = bufio.NewWriter(rw)
	c.r = bufio.NewReader(c.fbr)
	c.sc = &scratch{}
	return c
}

// NewConnPooled builds a connection whose read/write buffers come from a
// process-wide sync.Pool and are attached only while the connection is being
// served (AttachBuffers / ReleaseBuffers). Idle pooled connections hold zero
// buffer bytes. The worker binding is also deferred: the event-loop
// transport lends each connection its execution worker's engine handle via
// SetWorker at the start of every burst.
func NewConnPooled(rw io.ReadWriter) *Conn {
	c := newConnBase(nil, rw)
	c.pooled = true
	return c
}

func newConnBase(worker *engine.Worker, rw io.ReadWriter) *Conn {
	c := &Conn{worker: worker, transport: rw, affinity: -1}
	if bw, ok := rw.(buffersWriter); ok {
		c.bw = bw
	}
	c.fbr = &flushBeforeRead{c: c, r: rw}
	return c
}

// flushBeforeRead interposes on the read side's buffer refills. The
// bufio.Reader pulls from the transport only when its buffer cannot satisfy a
// request — i.e. exactly when the connection is about to block waiting for
// the client — so flushing pending replies here turns per-command flushes
// into one gathered write per pipelined batch while making it impossible to
// block against a client that is itself waiting for a reply.
type flushBeforeRead struct {
	c *Conn
	r io.Reader
}

func (f *flushBeforeRead) Read(p []byte) (int, error) {
	if err := f.c.flushNow(); err != nil {
		return 0, err
	}
	return f.r.Read(p)
}

// SetControl installs command-boundary hooks (nil disables them).
func (c *Conn) SetControl(ctl Control) { c.ctl = ctl }

// SetConnErrors supplies the server's connection-error counters for the
// `stats` command to report (nil omits the lines).
func (c *Conn) SetConnErrors(e *mcstats.ConnErrors) { c.connErrs = e }

// SetSpans installs the connection's request-span buffer (nil disables
// request tracing for this connection).
func (c *Conn) SetSpans(cs *txtrace.ConnSpans) { c.spans = cs }

// SetWorker rebinds the connection to an engine worker. The event-loop
// transport shares a small pool of workers across all connections (a worker
// registers per-shard stat blocks for life, so one per connection would leak
// at 100k conns) and lends one to the connection for each burst.
func (c *Conn) SetWorker(w *engine.Worker) { c.worker = w }

// SetShardTracking enables per-command shard-affinity recording (see
// Affinity). Off by default; the single-shard transport never asks.
func (c *Conn) SetShardTracking(on bool) {
	c.trackShard = on
	c.affinity = -1
}

// Affinity reports the TM shard the connection's last routing-decidable
// command touched, or -1 when the last command was multi-shard (multi-key
// get, flush_all, stats, wire transactions) or tracking is off. The
// event-loop transport uses it to keep a connection on a shard-affine
// worker queue.
func (c *Conn) Affinity() int { return c.affinity }

// noteKey records the shard of a single-key command for Affinity.
func (c *Conn) noteKey(key []byte) {
	if c.trackShard {
		c.affinity = c.worker.ShardOf(key)
	}
}

// noteShared marks the current command as not shard-routable.
func (c *Conn) noteShared() {
	if c.trackShard {
		c.affinity = -1
	}
}

// InputBuffered reports how many request bytes are already buffered in
// userspace. The event-loop transport keeps serving while this is non-zero:
// parking a connection with buffered input would deadlock it, because the
// poller only sees kernel-level readiness.
func (c *Conn) InputBuffered() int {
	if c.r == nil {
		return 0
	}
	return c.r.Buffered()
}

// Flush writes any buffered replies to the transport.
func (c *Conn) Flush() error { return c.flushNow() }

// Serve processes commands until EOF, quit, or a transport error. Any
// buffered replies are flushed before it returns.
func (c *Conn) Serve() error {
	err := c.serveLoop()
	c.tx = nil // disconnect is the implicit txabort
	if ferr := c.flushNow(); err == nil {
		err = ferr
	}
	return err
}

func (c *Conn) serveLoop() error {
	for {
		if err := c.ServeOne(); err != nil {
			if errors.Is(err, ErrQuit) || errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}

// ServeOne serves exactly one command, including the Control boundary hooks.
// It returns io.EOF on clean peer close and ErrQuit on a quit command; the
// caller owns mapping those to a clean shutdown. The event-loop transport
// calls this in a burst while InputBuffered is non-zero, then parks the
// connection back in the poller.
func (c *Conn) ServeOne() error {
	if c.pooled && c.r == nil {
		c.AttachBuffers()
	}
	if c.ctl != nil {
		if err := c.ctl.BeforeCommand(); err != nil {
			return err
		}
	}
	first, err := c.r.Peek(1)
	if err != nil {
		return err
	}
	if c.ctl != nil {
		c.ctl.CommandStarted()
	}
	if first[0] >= binMagicReq {
		// Any high first byte is framed as binary; serveBinaryOne rejects
		// wrong magic with a status reply rather than misparsing the
		// frame as a text command line.
		err = c.serveBinaryOne()
	} else {
		err = c.serveTextOne()
	}
	c.sc.trim()
	if c.ctl != nil {
		c.ctl.CommandDone()
	}
	return err
}

// serveTextOne handles a single text-protocol command line.
func (c *Conn) serveTextOne() error {
	line, err := c.readLine()
	if err != nil {
		if errors.Is(err, errLineTooLong) {
			// Framing is lost — the rest of the line is still on the wire —
			// so the client is told why and the connection ends.
			c.w.WriteString("CLIENT_ERROR line too long\r\n")
			c.flushNow()
		}
		return err
	}
	c.sc.fields = splitFields(c.sc.fields[:0], line)
	fields := c.sc.fields
	if len(fields) == 0 {
		return c.reply("ERROR\r\n")
	}
	cmd := lookupTextCmd(fields[0])
	name := textCmdNames[cmd]
	if cmd == cmdUnknown {
		name = string(fields[0])
	}
	args := fields[1:]

	// Request tracing: one atomic load (inside Begin) when tracing is off.
	// When a span opens, the worker's STM threads deliver every transaction
	// event of this command into it until End.
	if cs := c.spans; cs != nil && cs.Begin(name) {
		c.worker.SetTxTrace(cs)
		err := c.dispatchTextTimed(cmd, name, args)
		c.worker.SetTxTrace(nil)
		cs.End()
		return err
	}
	return c.dispatchTextTimed(cmd, name, args)
}

// textCmd is a parsed command word. Comparing the word's bytes against the
// table once, here, is what lets dispatch run without a string per command.
type textCmd uint8

const (
	cmdUnknown textCmd = iota
	cmdGet
	cmdGets
	cmdGat
	cmdGats
	cmdSet
	cmdAdd
	cmdReplace
	cmdAppend
	cmdPrepend
	cmdCas
	cmdDelete
	cmdIncr
	cmdDecr
	cmdTouch
	cmdStats
	cmdFlushAll
	cmdVersion
	cmdVerbosity
	cmdQuit
	cmdTxBegin
	cmdTxCommit
	cmdTxAbort
)

// textCmdNames are the command words, which are also the keys of the
// per-command latency histograms and the names of request spans.
var textCmdNames = [...]string{
	cmdUnknown: "", cmdGet: "get", cmdGets: "gets", cmdGat: "gat", cmdGats: "gats",
	cmdSet: "set", cmdAdd: "add", cmdReplace: "replace", cmdAppend: "append",
	cmdPrepend: "prepend", cmdCas: "cas", cmdDelete: "delete", cmdIncr: "incr",
	cmdDecr: "decr", cmdTouch: "touch", cmdStats: "stats", cmdFlushAll: "flush_all",
	cmdVersion: "version", cmdVerbosity: "verbosity", cmdQuit: "quit",
	cmdTxBegin: "txbegin", cmdTxCommit: "txcommit", cmdTxAbort: "txabort",
}

// lookupTextCmd finds a command word in the table; get comes first. Comparing
// a converted byte slice does not allocate.
func lookupTextCmd(word []byte) textCmd {
	for cmd := cmdUnknown + 1; int(cmd) < len(textCmdNames); cmd++ {
		if string(word) == textCmdNames[cmd] {
			return cmd
		}
	}
	return cmdUnknown
}

// dispatchTextTimed is dispatchText behind the per-command latency gate: one
// observer load when `stats tm` tracing was never enabled, one timestamp pair
// per command when it is on.
func (c *Conn) dispatchTextTimed(cmd textCmd, name string, args [][]byte) error {
	if o := c.worker.Observer(); o != nil && o.Enabled() {
		t0 := time.Now()
		err := c.dispatchText(cmd, args)
		o.ObserveCommand(name, time.Since(t0))
		return err
	}
	return c.dispatchText(cmd, args)
}

// dispatchText routes one parsed text command. Affinity defaults to shared
// (-1) per command; the single-key handlers below overwrite it with the
// key's shard once parsed.
func (c *Conn) dispatchText(cmd textCmd, args [][]byte) error {
	c.noteShared()
	switch cmd {
	case cmdTxBegin:
		return c.cmdTxBegin(args)
	case cmdTxCommit:
		return c.cmdTxCommit()
	case cmdTxAbort:
		return c.cmdTxAbort(args)
	}
	if c.tx != nil {
		return c.dispatchTextInTx(cmd, args)
	}
	switch cmd {
	case cmdGet, cmdGets:
		return c.cmdGet(args, cmd == cmdGets)
	case cmdGat, cmdGats:
		return c.cmdGat(args, cmd == cmdGats)
	case cmdSet, cmdAdd, cmdReplace, cmdAppend, cmdPrepend, cmdCas:
		return c.cmdStore(cmd, args)
	case cmdDelete:
		return c.cmdDelete(args)
	case cmdIncr, cmdDecr:
		return c.cmdDelta(cmd, args)
	case cmdTouch:
		return c.cmdTouch(args)
	case cmdStats:
		if len(args) > 0 {
			switch string(args[0]) {
			case "reset":
				// ResetStats clears engine counters AND the fingerprint
				// observer exactly once (cache-global); the transport's
				// counters are reset here because the engine cannot see
				// them. Both are idempotent Store(0)s, so racing resets
				// from two connections stay coherent.
				c.worker.ResetStats()
				if c.tstats != nil {
					c.tstats.ResetTransportCounters()
				}
				return c.reply("RESET\r\n")
			case "slabs":
				return c.cmdStatsSlabs()
			case "tm":
				return c.cmdStatsTM()
			case "conflicts":
				return c.cmdStatsConflicts()
			case "latency":
				return c.cmdStatsLatency()
			case "slowlog":
				return c.cmdStatsSlowlog()
			case "fingerprint":
				return c.cmdStatsFingerprint()
			case "eventloop":
				return c.cmdStatsEventLoop()
			}
			// A group this server does not know: memcached answers ERROR
			// rather than a plausible but unrelated block.
			return c.reply("ERROR\r\n")
		}
		return c.cmdStats()
	case cmdFlushAll:
		return c.cmdFlushAll(args)
	case cmdVersion:
		return c.reply("VERSION " + Version + "\r\n")
	case cmdVerbosity:
		if len(args) >= 1 {
			return c.replyMaybe(args, "OK\r\n")
		}
		return c.clientError("usage: verbosity <level>")
	case cmdQuit:
		return ErrQuit
	default:
		return c.reply("ERROR\r\n")
	}
}

func (c *Conn) cmdGat(args [][]byte, withCAS bool) error {
	if len(args) < 2 {
		return c.clientError("gat requires exptime and a key")
	}
	exptime, ok := parseUint(args[0], 64)
	if !ok {
		return c.clientError("invalid exptime argument")
	}
	keys := args[1:]
	if err := c.checkKeys(keys); err != nil {
		return err
	}
	// gat updates expiries — a writing command — so it keeps the per-key item
	// sections.
	exptime = absoluteExptime(c.worker, exptime)
	for _, key := range keys {
		val, flags, cas, ok := c.worker.GetAndTouchInto(&c.sc.get, key, exptime)
		if ok {
			c.writeValue(key, flags, val, cas, withCAS)
		}
	}
	return c.reply("END\r\n")
}

// checkKeys refuses a get whose keys the protocol does not allow.
func (c *Conn) checkKeys(keys [][]byte) error {
	if len(keys) == 0 {
		return c.clientError("get requires a key")
	}
	for _, key := range keys {
		if len(key) > MaxKeyLen {
			return c.clientError("key too long")
		}
	}
	return nil
}

var (
	crlf    = []byte("\r\n")
	endLine = []byte("END\r\n")
)

// writevThreshold: get responses whose values total at least this much skip
// the bufio copy and go to the transport as a single writev-style write.
const writevThreshold = 4096

// maxValueHeader bounds "VALUE <key> <flags> <bytes> <cas>\r\n".
const maxValueHeader = len("VALUE ") + MaxKeyLen + 1 + 10 + 1 + 20 + 1 + 20 + 2

// appendValueHeader appends the line announcing one value.
func appendValueHeader(dst, key []byte, flags uint32, n int, cas uint64, withCAS bool) []byte {
	dst = append(dst, "VALUE "...)
	dst = append(dst, key...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(flags), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(n), 10)
	if withCAS {
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, cas, 10)
	}
	return append(dst, '\r', '\n')
}

// reserve makes room for n more reply bytes in the write buffer, so that a
// header formatted into its free tail never outgrows it onto the heap. The
// flush it may do is the one the write buffer was about to do anyway.
func (c *Conn) reserve(n int) []byte {
	if c.w.Available() < n {
		c.w.Flush()
	}
	return c.w.AvailableBuffer()
}

// writeValue buffers one VALUE block.
func (c *Conn) writeValue(key []byte, flags uint32, val []byte, cas uint64, withCAS bool) {
	c.w.Write(appendValueHeader(c.reserve(maxValueHeader), key, flags, len(val), cas, withCAS))
	c.w.Write(val)
	c.w.Write(crlf)
}

func (c *Conn) cmdGet(args [][]byte, withCAS bool) error {
	if err := c.checkKeys(args); err != nil {
		return err
	}
	if len(args) == 1 {
		c.noteKey(args[0])
	}
	// get k1 k2 ...: one batched read-only transaction per bounded key group
	// (engine.MultiGetBatch) instead of one transaction per key, and one
	// gathered response instead of one write per VALUE line.
	results := c.worker.GetMultiInto(&c.sc.get, args)
	if c.bw != nil {
		payload := 0
		for i := range results {
			payload += len(results[i].Value)
		}
		if payload >= writevThreshold {
			return c.writeValuesGathered(args, results, withCAS)
		}
	}
	for i, key := range args {
		if r := &results[i]; r.Found {
			c.writeValue(key, r.Flags, r.Value, r.CAS, withCAS)
		}
	}
	c.w.Write(endLine)
	return c.flushIfIdle()
}

// writeValuesGathered puts a large get reply on the wire as one writev-style
// write: the headers are formatted into scratch, the values stay where the
// engine copied them.
func (c *Conn) writeValuesGathered(keys [][]byte, results []engine.GetResult, withCAS bool) error {
	bufs, hdrs := c.sc.bufs[:0], c.sc.hdrs[:0]
	for i, key := range keys {
		r := &results[i]
		if !r.Found {
			continue
		}
		at := len(hdrs)
		hdrs = appendValueHeader(hdrs, key, r.Flags, len(r.Value), r.CAS, withCAS)
		bufs = append(bufs, hdrs[at:len(hdrs):len(hdrs)], r.Value, crlf)
	}
	bufs = append(bufs, endLine)
	c.sc.bufs, c.sc.hdrs = bufs, hdrs
	if err := c.flushNow(); err != nil {
		return err
	}
	if c.connErrs != nil {
		c.connErrs.WritevBatches.Add(1)
	}
	_, err := c.bw.WriteBuffers(bufs)
	clear(bufs) // the scratch must not keep this reply's values reachable
	return err
}

// storeReplies are the storage commands' reply lines, by result.
var storeReplies = [...]string{
	engine.Stored:      "STORED\r\n",
	engine.NotStored:   "NOT_STORED\r\n",
	engine.Exists:      "EXISTS\r\n",
	engine.NotFound:    "NOT_FOUND\r\n",
	engine.TooLarge:    "SERVER_ERROR object too large for cache\r\n",
	engine.OutOfMemory: "SERVER_ERROR out of memory storing object\r\n",
}

// storeArgs is a storage command line, parsed.
type storeArgs struct {
	key       []byte
	flags     uint32
	exptime   uint64
	casUnique uint64
	noreply   bool
}

// readStore parses a storage command line and reads its data block into
// scratch. done reports that the command is over — refused, or silently
// dropped under noreply — with err what the handler returns; otherwise the
// caller owns sa and data until its reply. A bad line still consumes the data
// block it announced, without allocating whatever size the client claimed, so
// the stream stays in sync.
func (c *Conn) readStore(args [][]byte, withCAS bool) (sa storeArgs, data []byte, done bool, err error) {
	want := 4
	if withCAS {
		want = 5
	}
	if len(args) < want {
		return sa, nil, true, c.reply("ERROR\r\n")
	}
	flags, ok1 := parseUint(args[1], 32)
	exptime, ok2 := parseUint(args[2], 64)
	nbytes, ok3 := atoi(args[3])
	ok4 := true
	if withCAS {
		sa.casUnique, ok4 = parseUint(args[4], 64)
	}
	sa.noreply = len(args) > want && string(args[want]) == "noreply"
	if !ok1 || !ok2 || !ok3 || !ok4 || nbytes < 0 || nbytes > MaxBodyLen || len(args[0]) > MaxKeyLen {
		if nbytes >= 0 {
			c.r.Discard(nbytes + 2)
		}
		if sa.noreply {
			return sa, nil, true, c.flushIfIdle()
		}
		return sa, nil, true, c.clientError("bad command line format")
	}
	// The line's bytes belong to the read buffer, which reading the data
	// block reuses: the key moves to scratch first.
	c.sc.key = append(c.sc.key[:0], args[0]...)
	sa.key, sa.flags = c.sc.key, uint32(flags)
	c.sc.body = slices.Grow(c.sc.body[:0], nbytes)[:nbytes]
	data = c.sc.body
	if _, err := io.ReadFull(c.r, data); err != nil {
		return sa, nil, true, fmt.Errorf("%w: set data block truncated: %v", ErrProtocol, err)
	}
	// The data block must be terminated by a bare CRLF. Reading to the next
	// newline (rather than exactly two bytes) means a short or long data
	// block leaves the reader aligned on a line boundary: the connection
	// stays usable after the error, as memcached's conn_swallow state
	// guarantees.
	term, err := c.readLine()
	if err != nil {
		return sa, nil, true, fmt.Errorf("%w: set data block unterminated: %v", ErrProtocol, err)
	}
	if len(term) != 0 {
		if sa.noreply {
			return sa, nil, true, c.flushIfIdle()
		}
		return sa, nil, true, c.clientError("bad data chunk")
	}
	// Relative expiry (≤ 30 days, memcached convention) is converted here.
	sa.exptime = absoluteExptime(c.worker, exptime)
	return sa, data, false, nil
}

func (c *Conn) cmdStore(cmd textCmd, args [][]byte) error {
	sa, data, done, err := c.readStore(args, cmd == cmdCas)
	if done {
		return err
	}
	c.noteKey(sa.key)
	var res engine.StoreResult
	switch cmd {
	case cmdSet:
		res = c.worker.Set(sa.key, sa.flags, sa.exptime, data)
	case cmdAdd:
		res = c.worker.Add(sa.key, sa.flags, sa.exptime, data)
	case cmdReplace:
		res = c.worker.Replace(sa.key, sa.flags, sa.exptime, data)
	case cmdAppend:
		res = c.worker.Append(sa.key, data)
	case cmdPrepend:
		res = c.worker.Prepend(sa.key, data)
	case cmdCas:
		res = c.worker.CAS(sa.key, sa.flags, sa.exptime, data, sa.casUnique)
	}
	if sa.noreply {
		return c.flushIfIdle()
	}
	return c.reply(storeReplies[res])
}

func (c *Conn) cmdDelete(args [][]byte) error {
	if len(args) < 1 {
		return c.clientError("delete requires a key")
	}
	c.noteKey(args[0])
	if c.worker.Delete(args[0]) {
		return c.replyMaybe(args[1:], "DELETED\r\n")
	}
	return c.replyMaybe(args[1:], "NOT_FOUND\r\n")
}

func (c *Conn) cmdDelta(cmd textCmd, args [][]byte) error {
	if len(args) < 2 {
		return c.clientError("incr/decr require key and value")
	}
	delta, ok := parseUint(args[1], 64)
	if !ok {
		return c.clientError("invalid numeric delta argument")
	}
	c.noteKey(args[0])
	var v uint64
	var res engine.DeltaResult
	if cmd == cmdIncr {
		v, res = c.worker.Incr(args[0], delta)
	} else {
		v, res = c.worker.Decr(args[0], delta)
	}
	switch res {
	case engine.DeltaOK:
		if hasNoreply(args[2:]) {
			return c.flushIfIdle()
		}
		c.w.Write(append(strconv.AppendUint(c.reserve(22), v, 10), '\r', '\n'))
		return c.flushIfIdle()
	case engine.DeltaNotFound:
		return c.replyMaybe(args[2:], "NOT_FOUND\r\n")
	default:
		return c.clientError("cannot increment or decrement non-numeric value")
	}
}

func (c *Conn) cmdTouch(args [][]byte) error {
	if len(args) < 2 {
		return c.clientError("touch requires key and exptime")
	}
	exptime, ok := parseUint(args[1], 64)
	if !ok {
		return c.clientError("invalid exptime argument")
	}
	c.noteKey(args[0])
	if c.worker.Touch(args[0], absoluteExptime(c.worker, exptime)) {
		return c.replyMaybe(args[2:], "TOUCHED\r\n")
	}
	return c.replyMaybe(args[2:], "NOT_FOUND\r\n")
}

func (c *Conn) cmdStats() error {
	s := c.worker.Stats()
	stat := func(k string, v uint64) { fmt.Fprintf(c.w, "STAT %s %d\r\n", k, v) }
	fmt.Fprintf(c.w, "STAT version %s\r\n", Version)
	stat("cmd_get", s.GetCmds)
	stat("get_hits", s.GetHits)
	stat("get_misses", s.GetMisses)
	stat("cmd_set", s.SetCmds)
	stat("delete_hits", s.DeleteHits)
	stat("delete_misses", s.DeleteMiss)
	stat("incr_hits", s.IncrHits)
	stat("incr_misses", s.IncrMiss)
	stat("cas_hits", s.CasHits)
	stat("cas_misses", s.CasMiss)
	stat("cas_badval", s.CasBadval)
	stat("cmd_touch", s.TouchCmds)
	stat("curr_items", s.CurrItems)
	stat("total_items", s.TotalItems)
	stat("bytes", s.CurrBytes)
	stat("evictions", s.Evictions)
	stat("expired_unfetched", s.Expired)
	stat("slabs_moved", s.Reassigned)
	stat("hash_expansions", s.HashExpands)
	stat("hash_items", s.HashItems)
	stat("hash_buckets", s.HashBuckets)
	stat("limit_maxbytes", s.SlabBytes)
	stat("shards", uint64(c.worker.NumShards()))
	stat("tm_transactions", s.STM.Commits)
	stat("tm_aborts", s.STM.Aborts)
	stat("tm_inflight_switch", s.STM.InFlightSwitch)
	stat("tm_start_serial", s.STM.StartSerial)
	stat("tm_abort_serial", s.STM.AbortSerial)
	stat("tm_watchdog_backoff", s.STM.WatchdogBackoffs)
	stat("tm_watchdog_serialize", s.STM.WatchdogSerializes)
	stat("tm_htm_capacity_aborts", s.STM.HTMCapacityAborts)
	stat("tm_htm_fallbacks", s.STM.HTMFallbacks)
	stat("tm_ro_fast_commit", s.STM.ROFastCommits)
	stat("tm_ro_upgrade", s.STM.ROUpgrades)
	stat("tx_commits", s.TxCommits)
	stat("tx_conflicts", s.TxConflicts)
	stat("tx_serial_fallbacks", s.TxSerialFallbacks)
	if c.connErrs != nil {
		stat("conn_errors_io", c.connErrs.IO.Load())
		stat("conn_errors_protocol", c.connErrs.Protocol.Load())
		stat("conn_errors_timeout", c.connErrs.Timeout.Load())
		stat("conn_flushes", c.connErrs.Flushes.Load())
		stat("conn_batched_replies", c.connErrs.BatchedReplies.Load())
		stat("conn_writev_batches", c.connErrs.WritevBatches.Load())
	}
	inuse, idle := BufferGauges()
	stat("conn_buffers_inuse", uint64(inuse))
	stat("conn_buffers_idle", uint64(idle))
	return c.reply("END\r\n")
}

// obsReport fetches the observability report, or replies with a bare
// "STAT tracing 0" block when tracing was never enabled on this cache.
func (c *Conn) obsReport(topOrecs int) (txobs.Report, bool, error) {
	o := c.worker.Observer()
	if o == nil {
		fmt.Fprintf(c.w, "STAT tracing 0\r\n")
		return txobs.Report{}, false, c.reply("END\r\n")
	}
	return o.Report(topOrecs), true, nil
}

// cmdStatsTM reports event-kind counts and attributed serialization/abort
// causes (`stats tm`). Cause strings contain spaces, so they ride in the
// value position after their count.
func (c *Conn) cmdStatsTM() error {
	// Core transaction counters come from the runtime stats, not the tracer,
	// so "stats tm" answers the read-only fast-path questions (§5 experiment
	// methodology) even with event tracing off.
	s := c.worker.Stats().STM
	fmt.Fprintf(c.w, "STAT commits %d\r\n", s.Commits)
	fmt.Fprintf(c.w, "STAT aborts %d\r\n", s.Aborts)
	fmt.Fprintf(c.w, "STAT ro_fast_commit %d\r\n", s.ROFastCommits)
	fmt.Fprintf(c.w, "STAT ro_upgrade %d\r\n", s.ROUpgrades)
	fmt.Fprintf(c.w, "STAT start_serial %d\r\n", s.StartSerial)
	fmt.Fprintf(c.w, "STAT inflight_switch %d\r\n", s.InFlightSwitch)
	// Per-domain breakdown: each shard owns an independent STM runtime, so
	// the merged counters above decompose exactly into these lines.
	if shards := c.worker.ShardStats(); len(shards) > 1 {
		rts := c.worker.Runtimes()
		fmt.Fprintf(c.w, "STAT shards %d\r\n", len(shards))
		for i, ss := range shards {
			fmt.Fprintf(c.w, "STAT shard_%d_commits %d\r\n", i, ss.Commits)
			fmt.Fprintf(c.w, "STAT shard_%d_aborts %d\r\n", i, ss.Aborts)
			fmt.Fprintf(c.w, "STAT shard_%d_ro_fast_commit %d\r\n", i, ss.ROFastCommits)
			if rts != nil {
				fmt.Fprintf(c.w, "STAT shard_%d_algorithm %s\r\n", i, rts[i].Config().Algorithm)
			}
		}
	}
	r, ok, err := c.obsReport(0)
	if !ok {
		return err
	}
	fmt.Fprintf(c.w, "STAT tracing %d\r\n", boolInt(r.Enabled))
	fmt.Fprintf(c.w, "STAT events %d\r\n", r.Events)
	for _, k := range sortedKeys(r.Kinds) {
		fmt.Fprintf(c.w, "STAT events_%s %d\r\n", k, r.Kinds[k])
	}
	for i, cc := range r.SerialCauses {
		fmt.Fprintf(c.w, "STAT serial_cause_%d %d %s\r\n", i, cc.Count, cc.Cause)
	}
	for i, cc := range r.AbortCauses {
		fmt.Fprintf(c.w, "STAT abort_cause_%d %d %s\r\n", i, cc.Count, cc.Cause)
	}
	return c.reply("END\r\n")
}

// cmdStatsConflicts reports the conflict heat map (`stats conflicts`):
// aborts and abort-serial escalations by named structure, then the hottest
// ownership records.
func (c *Conn) cmdStatsConflicts() error {
	r, ok, err := c.obsReport(16)
	if !ok {
		return err
	}
	fmt.Fprintf(c.w, "STAT tracing %d\r\n", boolInt(r.Enabled))
	for _, l := range r.ConflictLabels {
		fmt.Fprintf(c.w, "STAT conflicts_%s %d\r\n", l.Label, l.Count)
	}
	for _, l := range r.SerialLabels {
		fmt.Fprintf(c.w, "STAT abort_serial_%s %d\r\n", l.Label, l.Count)
	}
	if r.Shards > 1 {
		for _, l := range r.ShardConflicts {
			fmt.Fprintf(c.w, "STAT conflicts_%s %d\r\n", l.Label, l.Count)
		}
		fmt.Fprintf(c.w, "STAT cross_shard_orec_conflicts %d\r\n", r.CrossShardOrecConflicts)
	}
	for _, oc := range r.HotOrecs {
		fmt.Fprintf(c.w, "STAT orec_%d %d %s\r\n", oc.Orec, oc.Count, oc.LastLabel)
	}
	return c.reply("END\r\n")
}

// cmdStatsLatency reports the phase and per-command latency histograms
// (`stats latency`), one line per histogram, quantiles in nanoseconds.
func (c *Conn) cmdStatsLatency() error {
	r, ok, err := c.obsReport(0)
	if !ok {
		return err
	}
	fmt.Fprintf(c.w, "STAT tracing %d\r\n", boolInt(r.Enabled))
	hist := func(prefix string, m map[string]txobs.HistSnapshot) {
		for _, k := range sortedKeys(m) {
			s := m[k]
			fmt.Fprintf(c.w, "STAT %s_%s count=%d mean_ns=%d p50_ns=%d p95_ns=%d p99_ns=%d max_ns=%d\r\n",
				prefix, k, s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
		}
	}
	hist("phase", r.Phases)
	hist("cmd", r.Commands)
	return c.reply("END\r\n")
}

// cmdStatsSlowlog reports the request tracer's flight recorder
// (`stats slowlog`): mode and counters first, then one line per captured
// pathological span, newest last.
func (c *Conn) cmdStatsSlowlog() error {
	tr := c.worker.Tracer()
	if tr == nil {
		return c.reply("END\r\n")
	}
	fmt.Fprintf(c.w, "STAT trace_mode %s\r\n", tr.Mode())
	fmt.Fprintf(c.w, "STAT trace_requests %d\r\n", tr.Requests())
	fmt.Fprintf(c.w, "STAT trace_kept %d\r\n", tr.Kept())
	fmt.Fprintf(c.w, "STAT slowlog_len %d\r\n", tr.SlowlogLen())
	fmt.Fprintf(c.w, "STAT slowlog_dropped %d\r\n", tr.SlowlogDropped())
	fmt.Fprintf(c.w, "STAT est_p99_ns %d\r\n", tr.EstP99())
	for _, sp := range tr.Slowlog() {
		why, owner, label := sp.Keep, "", ""
		// Surface the last abort's attribution so the one-line view already
		// answers "who aborted me" without dumping the span tree.
		for i := len(sp.Events) - 1; i >= 0; i-- {
			ev := sp.Events[i]
			if ev.Kind == "abort" || ev.Kind == "abort_serial" {
				owner, label = ev.Owner, ev.Label
				break
			}
		}
		fmt.Fprintf(c.w,
			"STAT slow_%d cmd=%s conn=%d dur_us=%d aborts=%d max_retry=%d serialized=%d keep=%s owner=%s label=%s\r\n",
			sp.ID, sp.Cmd, sp.Conn, sp.DurNanos/1000, sp.Aborts, sp.MaxRetry,
			boolInt(sp.Serialized), why, orDash(owner), orDash(label))
	}
	return c.reply("END\r\n")
}

// orDash substitutes "-" for empty attribution fields so the slowlog lines
// stay whitespace-parseable.
func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sortedKeys returns m's keys sorted (deterministic STAT ordering).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (c *Conn) cmdStatsSlabs() error {
	for _, s := range c.worker.SlabStats() {
		fmt.Fprintf(c.w, "STAT %d:chunk_size %d\r\n", s.Class, s.ChunkSize)
		fmt.Fprintf(c.w, "STAT %d:total_pages %d\r\n", s.Class, s.Pages)
		fmt.Fprintf(c.w, "STAT %d:used_chunks %d\r\n", s.Class, s.UsedChunks)
		fmt.Fprintf(c.w, "STAT %d:free_chunks %d\r\n", s.Class, s.FreeChunks)
	}
	return c.reply("END\r\n")
}

func (c *Conn) cmdFlushAll(args [][]byte) error {
	c.worker.FlushAll()
	return c.replyMaybe(args, "OK\r\n")
}

// ---------------------------------------------------------------------------
// helpers

// absoluteExptime converts relative expiry seconds (≤ 30 days) to absolute.
func absoluteExptime(w *engine.Worker, exptime uint64) uint64 {
	const thirtyDays = 60 * 60 * 24 * 30
	if exptime == 0 || exptime > thirtyDays {
		return exptime
	}
	return w.CacheNow() + exptime
}

// maxLineLen bounds a command line. The longest legitimate one, a get of 100
// keys of MaxKeyLen bytes, is well under it; a client that never sends a
// newline stops costing memory here.
const maxLineLen = 64 << 10

// errLineTooLong is connection-fatal: the rest of the line is unread, so the
// stream cannot be framed again.
var errLineTooLong = fmt.Errorf("%w: command line longer than %d bytes", ErrProtocol, maxLineLen)

// readLine returns the next line without its terminator. The bytes belong to
// the read buffer (to scratch, for a line longer than it) and are valid until
// the next read from the connection.
func (c *Conn) readLine() ([]byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		line, err = c.readLongLine(line)
	}
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// readLongLine finishes a line whose head filled the read buffer, gathering
// it in scratch up to maxLineLen.
func (c *Conn) readLongLine(head []byte) ([]byte, error) {
	long := append(c.sc.line[:0], head...)
	for {
		frag, err := c.r.ReadSlice('\n')
		if len(long)+len(frag) > maxLineLen {
			return nil, errLineTooLong
		}
		long = append(long, frag...)
		c.sc.line = long
		if err != bufio.ErrBufferFull {
			return long, err
		}
	}
}

// splitFields appends the whitespace-separated fields of line to dst. The
// fields are subslices of line: nothing is copied.
func splitFields(dst [][]byte, line []byte) [][]byte {
	start := -1
	for i, b := range line {
		switch b {
		case ' ', '\t', '\n', '\v', '\f', '\r':
			if start >= 0 {
				dst = append(dst, line[start:i:i])
				start = -1
			}
		default:
			if start < 0 {
				start = i
			}
		}
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// parseUint parses an unsigned decimal of at most the given bit size, as
// strconv.ParseUint(string(b), 10, bits) would, without the string.
func parseUint(b []byte, bits uint) (uint64, bool) {
	if len(b) == 0 || len(b) > 20 {
		return 0, false
	}
	var v uint64
	for _, d := range b {
		if d < '0' || d > '9' {
			return 0, false
		}
		if v > (1<<64-1)/10 {
			return 0, false
		}
		v *= 10
		if v+uint64(d-'0') < v {
			return 0, false
		}
		v += uint64(d - '0')
	}
	if bits < 64 && v>>bits != 0 {
		return 0, false
	}
	return v, true
}

// atoi parses a signed decimal that fits an int, as strconv.Atoi would.
func atoi(b []byte) (int, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg = b[0] == '-'
		b = b[1:]
	}
	v, ok := parseUint(b, 63)
	if !ok {
		return 0, false
	}
	if neg {
		return -int(v), true
	}
	return int(v), true
}

func (c *Conn) reply(s string) error {
	c.w.WriteString(s)
	return c.flushIfIdle()
}

// flushIfIdle flushes buffered replies unless more pipelined input is already
// readable, in which case replies keep gathering and leave in one write when
// the pipeline drains (flushBeforeRead) or the write buffer fills.
func (c *Conn) flushIfIdle() error {
	if c.r.Buffered() > 0 {
		if c.connErrs != nil {
			c.connErrs.BatchedReplies.Add(1)
		}
		return nil
	}
	return c.flushNow()
}

// flushNow writes any buffered replies to the transport. A pooled
// connection with buffers released (parked or torn down) has nothing
// buffered by definition.
func (c *Conn) flushNow() error {
	if c.w == nil || c.w.Buffered() == 0 {
		return nil
	}
	if c.connErrs != nil {
		c.connErrs.Flushes.Add(1)
	}
	return c.w.Flush()
}

// replyMaybe suppresses the reply when the trailing argument is "noreply".
func (c *Conn) replyMaybe(rest [][]byte, s string) error {
	if hasNoreply(rest) {
		return c.flushIfIdle()
	}
	return c.reply(s)
}

func (c *Conn) clientError(msg string) error {
	return c.replyError(&ClientError{Msg: msg, Status: StatusInvalidArgs})
}
