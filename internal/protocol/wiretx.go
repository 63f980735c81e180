package protocol

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"repro/internal/engine"
)

// Wire transactions: the protocol half of the txbegin/txcommit extension, a
// MULTI/EXEC-shaped command group mapped onto one engine transaction.
//
//	txbegin                          → STARTED
//	get k1 k2                        → normal VALUE/END reply, reads recorded
//	set/delete/touch/incr/decr ...   → QUEUED (noreply honored)
//	txcommit                         → TXRESULT <n> + one line per op + END
//	                                   or TX_CONFLICT <key>
//	txabort                          → ABORTED
//
// In-transaction reads execute immediately against committed state — they do
// NOT see the transaction's own queued writes (the client library overlays
// its local write-set for read-your-writes; the wire contract is
// read-committed at queue time, atomic at commit). Every read records the CAS
// it observed (0 = absent); txcommit revalidates the whole read set before
// applying anything, so a commit that returns TXRESULT is a serializable
// execution: the reads were still current at the instant the writes applied.
//
// The transaction lives entirely in connection-local memory until txcommit —
// no engine resource is held while the client is queueing — so an abandoned
// transaction costs nothing and disconnect is the implicit txabort.
//
// Limits, checked at every tx command: at most MaxTxOps reads+ops, at most
// MaxTxBytes of queued keys and values, and TxTTL between txbegin and
// txcommit. Exceeding any of them aborts the transaction (the client must
// restart it) — a limit violation means the client's model of the
// transaction is wrong, and half a transaction must never commit.

const (
	// MaxTxOps bounds the read set plus the queued ops of one transaction.
	MaxTxOps = 64
	// MaxTxBytes bounds the connection-local memory a transaction may queue.
	MaxTxBytes = 512 << 10
	// TxTTL bounds how long a transaction may stay open; the read set only
	// grows staler, so an old transaction would mostly conflict anyway.
	TxTTL = 5 * time.Second
)

// txState is one connection's open transaction.
type txState struct {
	reads    []engine.TxRead
	ops      []engine.TxOp
	bytes    int
	deadline time.Time
}

var (
	errTxUnsupported = &ServerError{Msg: "transactions not supported on this branch", Status: StatusUnknownCommand}
	errTxOpen        = &ClientError{Msg: "transaction already started", Status: StatusInvalidArgs}
	errTxNotStarted  = &ClientError{Msg: "no transaction started", Status: StatusInvalidArgs}
	errTxTimeout     = &ClientError{Msg: "transaction timed out", Status: StatusInvalidArgs}
	errTxTooManyOps  = &ClientError{Msg: "transaction operation limit exceeded", Status: StatusValueTooLarge}
	errTxTooLarge    = &ClientError{Msg: "transaction byte limit exceeded", Status: StatusValueTooLarge}
	errTxBadCommand  = &ClientError{Msg: "command not allowed inside a transaction", Status: StatusInvalidArgs}
)

// txCheck validates the open transaction at a tx command boundary: it must
// exist and be within its TTL. A timed-out transaction is dropped here.
func (c *Conn) txCheck() error {
	if c.tx == nil {
		return errTxNotStarted
	}
	if time.Now().After(c.tx.deadline) {
		c.tx = nil
		return errTxTimeout
	}
	return nil
}

// txAdmit charges one record of the given byte cost against the transaction's
// limits, aborting it on overflow.
func (c *Conn) txAdmit(cost int) error {
	t := c.tx
	if len(t.reads)+len(t.ops) >= MaxTxOps {
		c.tx = nil
		return errTxTooManyOps
	}
	if t.bytes+cost > MaxTxBytes {
		c.tx = nil
		return errTxTooLarge
	}
	t.bytes += cost
	return nil
}

// txRecordRead and txQueue keep their keys and values past the command that
// brought them, whose bytes live in the read buffer and the request scratch:
// they take copies.
func (c *Conn) txRecordRead(key []byte, cas uint64) error {
	if err := c.txAdmit(len(key)); err != nil {
		return err
	}
	c.tx.reads = append(c.tx.reads, engine.TxRead{Key: bytes.Clone(key), CAS: cas})
	return nil
}

func (c *Conn) txQueue(op engine.TxOp) error {
	if err := c.txAdmit(len(op.Key) + len(op.Value)); err != nil {
		return err
	}
	op.Key, op.Value = bytes.Clone(op.Key), bytes.Clone(op.Value)
	c.tx.ops = append(c.tx.ops, op)
	return nil
}

// ---------------------------------------------------------------------------
// text protocol

func (c *Conn) cmdTxBegin(args [][]byte) error {
	if !c.worker.TxSupported() {
		return c.replyError(errTxUnsupported)
	}
	if c.tx != nil {
		// A nested txbegin means the client lost track of its own state;
		// dropping the open transaction is safer than silently merging two.
		c.tx = nil
		return c.replyError(errTxOpen)
	}
	c.tx = &txState{deadline: time.Now().Add(TxTTL)}
	return c.replyMaybe(args, "STARTED\r\n")
}

func (c *Conn) cmdTxAbort(args [][]byte) error {
	if err := c.txCheck(); err != nil {
		return c.replyError(err)
	}
	c.tx = nil
	return c.replyMaybe(args, "ABORTED\r\n")
}

func (c *Conn) cmdTxCommit() error {
	if err := c.txCheck(); err != nil {
		return c.replyError(err)
	}
	t := c.tx
	c.tx = nil
	out := c.worker.CommitTx(t.reads, t.ops)
	if !out.Committed {
		return c.reply("TX_CONFLICT " + string(out.ConflictKey) + "\r\n")
	}
	fmt.Fprintf(c.w, "TXRESULT %d\r\n", len(out.Results))
	for i := range out.Results {
		c.w.WriteString(txResultLine(&out.Results[i]))
		c.w.Write(crlf)
	}
	return c.reply("END\r\n")
}

// txResultLine renders one queued op's outcome exactly as the standalone
// command would have replied.
func txResultLine(r *engine.TxOpResult) string {
	switch r.Kind {
	case engine.TxSet:
		return r.Store.String()
	case engine.TxDel:
		if r.Found {
			return "DELETED"
		}
		return "NOT_FOUND"
	case engine.TxTouch:
		if r.Found {
			return "TOUCHED"
		}
		return "NOT_FOUND"
	default: // TxIncr, TxDecr
		switch r.Delta {
		case engine.DeltaOK:
			return strconv.FormatUint(r.NewValue, 10)
		case engine.DeltaNotFound:
			return "NOT_FOUND"
		default:
			return "CLIENT_ERROR cannot increment or decrement non-numeric value"
		}
	}
}

// dispatchTextInTx routes commands while a transaction is open: reads execute
// immediately (and join the read set), the five queueable mutations queue,
// version/quit pass through, everything else is refused without disturbing
// the transaction.
func (c *Conn) dispatchTextInTx(cmd textCmd, args [][]byte) error {
	if err := c.txCheck(); err != nil {
		return c.replyError(err)
	}
	switch cmd {
	case cmdGet, cmdGets:
		return c.cmdTxGet(args, cmd == cmdGets)
	case cmdSet:
		return c.cmdTxSet(args)
	case cmdDelete:
		return c.cmdTxDelete(args)
	case cmdTouch:
		return c.cmdTxTouch(args)
	case cmdIncr, cmdDecr:
		return c.cmdTxDelta(cmd, args)
	case cmdVersion:
		return c.reply("VERSION " + Version + "\r\n")
	case cmdQuit:
		return ErrQuit
	default:
		return c.replyError(errTxBadCommand)
	}
}

func (c *Conn) cmdTxGet(args [][]byte, withCAS bool) error {
	if refused, err := c.refuseKeys(args); refused {
		return err
	}
	results := c.worker.GetMultiInto(&c.sc.get, args)
	// Record every key — misses record CAS 0, so the commit validates
	// continued absence exactly as it validates an unchanged value.
	for i, key := range args {
		cas := uint64(0)
		if results[i].Found {
			cas = results[i].CAS
		}
		if err := c.txRecordRead(key, cas); err != nil {
			return c.replyError(err)
		}
	}
	for i, key := range args {
		if r := &results[i]; r.Found {
			c.writeValue(key, r.Flags, r.Value, r.CAS, withCAS)
		}
	}
	return c.reply("END\r\n")
}

// cmdTxSet parses exactly like the standalone set — including draining the
// data block on a bad command line so the connection stays aligned — but
// queues instead of applying.
func (c *Conn) cmdTxSet(args [][]byte) error {
	sa, data, done, err := c.readStore(args, false)
	if done {
		return err
	}
	qerr := c.txQueue(engine.TxOp{
		Kind:    engine.TxSet,
		Key:     sa.key,
		Flags:   sa.flags,
		Exptime: sa.exptime,
		Value:   data,
	})
	return c.txQueuedReply(sa.noreply, qerr)
}

func (c *Conn) cmdTxDelete(args [][]byte) error {
	if len(args) < 1 {
		return c.clientError("delete requires a key")
	}
	qerr := c.txQueue(engine.TxOp{Kind: engine.TxDel, Key: args[0]})
	return c.txQueuedReply(hasNoreply(args[1:]), qerr)
}

func (c *Conn) cmdTxTouch(args [][]byte) error {
	if len(args) < 2 {
		return c.clientError("touch requires key and exptime")
	}
	exptime, ok := parseUint(args[1], 64)
	if !ok {
		return c.clientError("invalid exptime argument")
	}
	qerr := c.txQueue(engine.TxOp{
		Kind:    engine.TxTouch,
		Key:     args[0],
		Exptime: absoluteExptime(c.worker, exptime),
	})
	return c.txQueuedReply(hasNoreply(args[2:]), qerr)
}

func (c *Conn) cmdTxDelta(cmd textCmd, args [][]byte) error {
	if len(args) < 2 {
		return c.clientError("incr/decr require key and value")
	}
	delta, ok := parseUint(args[1], 64)
	if !ok {
		return c.clientError("invalid numeric delta argument")
	}
	kind := engine.TxIncr
	if cmd == cmdDecr {
		kind = engine.TxDecr
	}
	qerr := c.txQueue(engine.TxOp{Kind: kind, Key: args[0], Delta: delta})
	return c.txQueuedReply(hasNoreply(args[2:]), qerr)
}

// txQueuedReply finishes a queueing command: a limit violation renders as a
// typed error (even under noreply — the transaction just died and the client
// must find out), success as QUEUED unless suppressed.
func (c *Conn) txQueuedReply(noreply bool, qerr error) error {
	if qerr != nil {
		return c.replyError(qerr)
	}
	if noreply {
		return c.flushIfIdle()
	}
	return c.reply("QUEUED\r\n")
}

func hasNoreply(rest [][]byte) bool {
	return len(rest) > 0 && string(rest[len(rest)-1]) == "noreply"
}

// ---------------------------------------------------------------------------
// binary protocol

func (c *Conn) binTxBegin(req binHeader) error {
	if !c.worker.TxSupported() {
		return c.binReplyError(req, errTxUnsupported)
	}
	if c.tx != nil {
		c.tx = nil
		return c.binReplyError(req, errTxOpen)
	}
	c.tx = &txState{deadline: time.Now().Add(TxTTL)}
	return c.binReply(req, StatusOK, nil, nil, nil, 0)
}

func (c *Conn) binTxAbort(req binHeader) error {
	if err := c.txCheck(); err != nil {
		return c.binReplyError(req, err)
	}
	c.tx = nil
	return c.binReply(req, StatusOK, nil, nil, nil, 0)
}

// binTxCommit commits; a conflict renders as StatusKeyExists — the binary
// protocol's CAS-mismatch status — with the losing key in the key field.
func (c *Conn) binTxCommit(req binHeader) error {
	if err := c.txCheck(); err != nil {
		return c.binReplyError(req, err)
	}
	t := c.tx
	c.tx = nil
	out := c.worker.CommitTx(t.reads, t.ops)
	if !out.Committed {
		return c.binReply(req, StatusKeyExists, nil, out.ConflictKey, []byte("Transaction conflict"), 0)
	}
	return c.binReply(req, StatusOK, nil, nil, appendUintBin(nil, uint64(len(out.Results))), 0)
}

// dispatchBinaryInTx mirrors dispatchTextInTx for binary frames. Quiet gets
// are refused inside a transaction: every read must be individually
// acknowledged, since each one grows the validated read set.
func (c *Conn) dispatchBinaryInTx(req binHeader, extras, key, value []byte) error {
	if err := c.txCheck(); err != nil {
		return c.binReplyError(req, err)
	}
	switch req.opcode {
	case OpGet, OpGetK:
		if len(extras) != 0 {
			return c.binError(req, StatusInvalidArgs, "Get takes no extras")
		}
		val, flags, cas, ok := c.worker.GetInto(&c.sc.get, key)
		rcas := uint64(0)
		if ok {
			rcas = cas
		}
		if err := c.txRecordRead(key, rcas); err != nil {
			return c.binReplyError(req, err)
		}
		if !ok {
			return c.binError(req, StatusKeyNotFound, "Not found")
		}
		var fx [4]byte
		fx[0], fx[1], fx[2], fx[3] = byte(flags>>24), byte(flags>>16), byte(flags>>8), byte(flags)
		replyKey := []byte(nil)
		if req.opcode == OpGetK {
			replyKey = key
		}
		return c.binReply(req, StatusOK, fx[:], replyKey, val, cas)

	case OpSet:
		if len(extras) < 8 {
			return c.binError(req, StatusInvalidArgs, "")
		}
		flags := uint32(extras[0])<<24 | uint32(extras[1])<<16 | uint32(extras[2])<<8 | uint32(extras[3])
		exp := uint64(extras[4])<<24 | uint64(extras[5])<<16 | uint64(extras[6])<<8 | uint64(extras[7])
		err := c.txQueue(engine.TxOp{
			Kind:    engine.TxSet,
			Key:     key,
			Flags:   flags,
			Exptime: absoluteExptime(c.worker, exp),
			Value:   value,
		})
		return c.binTxQueuedReply(req, err)

	case OpDelete:
		return c.binTxQueuedReply(req, c.txQueue(engine.TxOp{Kind: engine.TxDel, Key: key}))

	case OpTouch:
		if len(extras) < 4 {
			return c.binError(req, StatusInvalidArgs, "")
		}
		exp := uint64(extras[0])<<24 | uint64(extras[1])<<16 | uint64(extras[2])<<8 | uint64(extras[3])
		err := c.txQueue(engine.TxOp{
			Kind:    engine.TxTouch,
			Key:     key,
			Exptime: absoluteExptime(c.worker, exp),
		})
		return c.binTxQueuedReply(req, err)

	case OpIncrement, OpDecrement:
		if len(extras) < 20 {
			return c.binError(req, StatusInvalidArgs, "")
		}
		var delta uint64
		for _, b := range extras[0:8] {
			delta = delta<<8 | uint64(b)
		}
		kind := engine.TxIncr
		if req.opcode == OpDecrement {
			kind = engine.TxDecr
		}
		// The create-if-missing initial value is not honored inside a
		// transaction: the queued delta applies to whatever exists at commit.
		return c.binTxQueuedReply(req, c.txQueue(engine.TxOp{Kind: kind, Key: key, Delta: delta}))

	case OpNoop:
		return c.binReply(req, StatusOK, nil, nil, nil, 0)
	case OpVersion:
		return c.binReply(req, StatusOK, nil, nil, []byte(Version), 0)
	case OpQuit:
		c.binReply(req, StatusOK, nil, nil, nil, 0)
		return ErrQuit
	default:
		return c.binReplyError(req, errTxBadCommand)
	}
}

func (c *Conn) binTxQueuedReply(req binHeader, qerr error) error {
	if qerr != nil {
		return c.binReplyError(req, qerr)
	}
	return c.binReply(req, StatusOK, nil, nil, nil, 0)
}
