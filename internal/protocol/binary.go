package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/engine"
)

// Binary protocol framing (the subset memslap --binary exercises, plus the
// administrative opcodes).
const (
	binMagicReq = 0x80
	binMagicRes = 0x81
)

// Opcodes.
const (
	OpGet       = 0x00
	OpGetQ      = 0x09 // quiet get: no reply on miss (pipelined multigets)
	OpGetK      = 0x0c // get returning the key in the reply
	OpGetKQ     = 0x0d
	OpSet       = 0x01
	OpAdd       = 0x02
	OpReplace   = 0x03
	OpDelete    = 0x04
	OpIncrement = 0x05
	OpDecrement = 0x06
	OpQuit      = 0x07
	OpFlush     = 0x08
	OpNoop      = 0x0a
	OpVersion   = 0x0b
	OpAppend    = 0x0e
	OpPrepend   = 0x0f
	OpStat      = 0x10
	OpTouch     = 0x1c
	OpGAT       = 0x1d

	// Wire-transaction extension opcodes (vendor range, see wiretx.go).
	OpTxBegin  = 0xe0
	OpTxCommit = 0xe1
	OpTxAbort  = 0xe2
)

// Response status codes.
const (
	StatusOK             = 0x0000
	StatusKeyNotFound    = 0x0001
	StatusKeyExists      = 0x0002
	StatusValueTooLarge  = 0x0003
	StatusInvalidArgs    = 0x0004
	StatusItemNotStored  = 0x0005
	StatusNonNumeric     = 0x0006
	StatusUnknownCommand = 0x0081
	StatusOutOfMemory    = 0x0082
)

type binHeader struct {
	opcode   byte
	keyLen   uint16
	extraLen byte
	status   uint16
	bodyLen  uint32
	opaque   uint32
	cas      uint64
}

// serveBinaryOne handles one binary request frame.
func (c *Conn) serveBinaryOne() error {
	// The header is parsed where it sits in the read buffer.
	hdr, err := c.r.Peek(24)
	if err != nil {
		if errors.Is(err, io.EOF) {
			// ServeOne saw the frame's first byte, so this is a cut, not a
			// clean close.
			return fmt.Errorf("%w: truncated binary header: %v", ErrProtocol, io.ErrUnexpectedEOF)
		}
		return err
	}
	magic := hdr[0]
	req := binHeader{
		opcode:   hdr[1],
		keyLen:   binary.BigEndian.Uint16(hdr[2:4]),
		extraLen: hdr[4],
		bodyLen:  binary.BigEndian.Uint32(hdr[8:12]),
		opaque:   binary.BigEndian.Uint32(hdr[12:16]),
		cas:      binary.BigEndian.Uint64(hdr[16:24]),
	}
	c.r.Discard(24)
	if magic != binMagicReq {
		// Malformed magic (a high first byte that is not 0x80): the header
		// layout is still the only framing we have, so trust its body length
		// if sane, drain the frame, and refuse it — leaving the connection
		// aligned on the next frame. An insane length means framing is lost
		// for good and the connection must die.
		if req.bodyLen > MaxBodyLen {
			return fmt.Errorf("%w: bad magic 0x%02x with %d-byte body", ErrProtocol, magic, req.bodyLen)
		}
		c.r.Discard(int(req.bodyLen))
		return c.binError(binHeader{opcode: req.opcode}, StatusUnknownCommand, "Bad magic")
	}
	if req.bodyLen > MaxBodyLen {
		// A hostile or corrupt frame must not make us allocate its claimed
		// body. Drain what we can and refuse.
		c.r.Discard(int(req.bodyLen))
		return c.binError(req, StatusValueTooLarge, "Too large")
	}
	c.sc.body = slices.Grow(c.sc.body[:0], int(req.bodyLen))[:req.bodyLen]
	body := c.sc.body
	if _, err := io.ReadFull(c.r, body); err != nil {
		return fmt.Errorf("%w: truncated binary body: %v", ErrProtocol, err)
	}
	if int(req.extraLen)+int(req.keyLen) > len(body) {
		return c.binError(req, StatusInvalidArgs, "")
	}
	if req.keyLen > MaxKeyLen {
		// The frame is consumed, so the protocol's 250-byte key limit is a
		// per-command refusal, not a connection error.
		return c.binError(req, StatusInvalidArgs, "Key too long")
	}
	extras := body[:req.extraLen]
	key := body[req.extraLen : int(req.extraLen)+int(req.keyLen)]
	value := body[int(req.extraLen)+int(req.keyLen):]

	// Same span bracket as the text path; the span's cmd is prefixed so a
	// flight-recorder line says which protocol carried the request.
	if cs := c.spans; cs != nil && cs.Begin(binSpanNames[req.opcode]) {
		c.worker.SetTxTrace(cs)
		err := c.dispatchBinaryTimed(req, extras, key, value)
		c.worker.SetTxTrace(nil)
		cs.End()
		return err
	}
	return c.dispatchBinaryTimed(req, extras, key, value)
}

// binSpanNames are the request-span names of the 256 opcodes, built once so
// that opening a span costs no string.
var binSpanNames = func() (names [256]string) {
	for op := range names {
		names[op] = "binary/" + binOpName(byte(op))
	}
	return names
}()

func (c *Conn) dispatchBinaryTimed(req binHeader, extras, key, value []byte) error {
	if o := c.worker.Observer(); o != nil && o.Enabled() {
		t0 := time.Now()
		err := c.dispatchBinary(req, extras, key, value)
		o.ObserveCommand(binOpName(req.opcode), time.Since(t0))
		return err
	}
	return c.dispatchBinary(req, extras, key, value)
}

// binOpName maps an opcode to the command-latency histogram key, matching the
// text protocol's command names where the semantics match.
func binOpName(op byte) string {
	switch op {
	case OpGet, OpGetQ, OpGetK, OpGetKQ:
		return "get"
	case OpSet:
		return "set"
	case OpAdd:
		return "add"
	case OpReplace:
		return "replace"
	case OpAppend:
		return "append"
	case OpPrepend:
		return "prepend"
	case OpDelete:
		return "delete"
	case OpIncrement:
		return "incr"
	case OpDecrement:
		return "decr"
	case OpTouch:
		return "touch"
	case OpGAT:
		return "gat"
	case OpFlush:
		return "flush_all"
	case OpStat:
		return "stats"
	case OpNoop:
		return "noop"
	case OpVersion:
		return "version"
	case OpQuit:
		return "quit"
	case OpTxBegin:
		return "txbegin"
	case OpTxCommit:
		return "txcommit"
	case OpTxAbort:
		return "txabort"
	default:
		return fmt.Sprintf("op_0x%02x", op)
	}
}

// dispatchBinary routes one parsed binary frame. Affinity defaults to
// shared (-1); the single-key arms note the key's shard once validated.
// Quiet-get runs stay shared: they batch many keys across shards.
func (c *Conn) dispatchBinary(req binHeader, extras, key, value []byte) error {
	c.noteShared()
	switch req.opcode {
	case OpTxBegin:
		return c.binTxBegin(req)
	case OpTxCommit:
		return c.binTxCommit(req)
	case OpTxAbort:
		return c.binTxAbort(req)
	}
	if c.tx != nil {
		return c.dispatchBinaryInTx(req, extras, key, value)
	}
	switch req.opcode {
	case OpGetQ, OpGetKQ:
		if len(extras) != 0 {
			// Get carries no extras; enforcing this here keeps the main
			// path's acceptance aligned with the run-extension filter in
			// takeBufferedQuietGet, which skips such frames.
			return c.binError(req, StatusInvalidArgs, "Get takes no extras")
		}
		return c.serveQuietGetRun(req, key)

	case OpGet, OpGetK:
		if len(extras) != 0 {
			return c.binError(req, StatusInvalidArgs, "Get takes no extras")
		}
		c.noteKey(key)
		val, flags, cas, ok := c.worker.GetInto(&c.sc.get, key)
		if !ok {
			return c.binError(req, StatusKeyNotFound, "Not found")
		}
		var fx [4]byte
		binary.BigEndian.PutUint32(fx[:], flags)
		replyKey := []byte(nil)
		if req.opcode == OpGetK {
			replyKey = key
		}
		return c.binReply(req, StatusOK, fx[:], replyKey, val, cas)

	case OpSet, OpAdd, OpReplace:
		if len(extras) < 8 {
			return c.binError(req, StatusInvalidArgs, "")
		}
		flags := binary.BigEndian.Uint32(extras[0:4])
		exptime := absoluteExptime(c.worker, uint64(binary.BigEndian.Uint32(extras[4:8])))
		c.noteKey(key)
		var res engine.StoreResult
		switch {
		case req.cas != 0:
			res = c.worker.CAS(key, flags, exptime, value, req.cas)
		case req.opcode == OpSet:
			res = c.worker.Set(key, flags, exptime, value)
		case req.opcode == OpAdd:
			res = c.worker.Add(key, flags, exptime, value)
		default:
			res = c.worker.Replace(key, flags, exptime, value)
		}
		switch res {
		case engine.Stored:
			return c.binReply(req, StatusOK, nil, nil, nil, 0)
		case engine.Exists:
			return c.binError(req, StatusKeyExists, "Data exists for key")
		case engine.NotFound:
			return c.binError(req, StatusKeyNotFound, "Not found")
		case engine.TooLarge:
			return c.binError(req, StatusValueTooLarge, "Too large")
		case engine.OutOfMemory:
			return c.binError(req, StatusOutOfMemory, "Out of memory")
		default:
			return c.binError(req, StatusItemNotStored, "Not stored")
		}

	case OpAppend, OpPrepend:
		c.noteKey(key)
		var res engine.StoreResult
		if req.opcode == OpAppend {
			res = c.worker.Append(key, value)
		} else {
			res = c.worker.Prepend(key, value)
		}
		if res == engine.Stored {
			return c.binReply(req, StatusOK, nil, nil, nil, 0)
		}
		return c.binError(req, StatusItemNotStored, "Not stored")

	case OpTouch, OpGAT:
		if len(extras) < 4 {
			return c.binError(req, StatusInvalidArgs, "")
		}
		exptime := absoluteExptime(c.worker, uint64(binary.BigEndian.Uint32(extras[0:4])))
		c.noteKey(key)
		if req.opcode == OpTouch {
			if c.worker.Touch(key, exptime) {
				return c.binReply(req, StatusOK, nil, nil, nil, 0)
			}
			return c.binError(req, StatusKeyNotFound, "Not found")
		}
		val, flags, cas, ok := c.worker.GetAndTouchInto(&c.sc.get, key, exptime)
		if !ok {
			return c.binError(req, StatusKeyNotFound, "Not found")
		}
		var fx [4]byte
		binary.BigEndian.PutUint32(fx[:], flags)
		return c.binReply(req, StatusOK, fx[:], nil, val, cas)

	case OpDelete:
		c.noteKey(key)
		if c.worker.Delete(key) {
			return c.binReply(req, StatusOK, nil, nil, nil, 0)
		}
		return c.binError(req, StatusKeyNotFound, "Not found")

	case OpIncrement, OpDecrement:
		if len(extras) < 20 {
			return c.binError(req, StatusInvalidArgs, "")
		}
		delta := binary.BigEndian.Uint64(extras[0:8])
		initial := binary.BigEndian.Uint64(extras[8:16])
		expRaw := binary.BigEndian.Uint32(extras[16:20])
		c.noteKey(key)
		var v uint64
		var res engine.DeltaResult
		if req.opcode == OpIncrement {
			v, res = c.worker.Incr(key, delta)
		} else {
			v, res = c.worker.Decr(key, delta)
		}
		if res == engine.DeltaNotFound {
			// 0xffffffff means "do not create".
			if expRaw == 0xffffffff {
				return c.binError(req, StatusKeyNotFound, "Not found")
			}
			text := make([]byte, 0, 20)
			text = appendUintBin(text, initial)
			if sr := c.worker.Add(key, 0, absoluteExptime(c.worker, uint64(expRaw)), text); sr != engine.Stored {
				return c.binError(req, StatusOutOfMemory, "Out of memory")
			}
			v = initial
		} else if res == engine.DeltaNonNumeric {
			return c.binError(req, StatusNonNumeric, "Non-numeric value")
		}
		var out [8]byte
		binary.BigEndian.PutUint64(out[:], v)
		return c.binReply(req, StatusOK, nil, nil, out[:], 0)

	case OpFlush:
		c.worker.FlushAll()
		return c.binReply(req, StatusOK, nil, nil, nil, 0)

	case OpNoop:
		return c.binReply(req, StatusOK, nil, nil, nil, 0)

	case OpVersion:
		return c.binReply(req, StatusOK, nil, nil, []byte(Version), 0)

	case OpStat:
		// One stat per frame, terminated by an empty key/value frame.
		s := c.worker.Stats()
		stats := []struct {
			k string
			v uint64
		}{
			{"cmd_get", s.GetCmds}, {"get_hits", s.GetHits},
			{"get_misses", s.GetMisses}, {"cmd_set", s.SetCmds},
			{"curr_items", s.CurrItems}, {"evictions", s.Evictions},
			{"tm_transactions", s.STM.Commits}, {"tm_aborts", s.STM.Aborts},
		}
		for _, kv := range stats {
			var buf [20]byte
			n := copy(buf[:], appendUintBin(nil, kv.v))
			if err := c.binReplyNoFlush(req, StatusOK, nil, []byte(kv.k), buf[:n], 0); err != nil {
				return err
			}
		}
		return c.binReply(req, StatusOK, nil, nil, nil, 0)

	case OpQuit:
		c.binReply(req, StatusOK, nil, nil, nil, 0)
		return ErrQuit

	default:
		return c.binError(req, StatusUnknownCommand, "Unknown command")
	}
}

// quietGet is one frame of a pipelined quiet-get run.
type quietGet struct {
	req binHeader
	key []byte
}

// serveQuietGetRun handles a GetQ/GetKQ frame plus any directly following
// quiet-get frames already sitting in the read buffer as ONE batched
// read-only multi-get: the idiomatic pipelined multiget (GETKQ ... GETKQ,
// NOOP) becomes one engine transaction per bounded group instead of one
// transaction per key. Only fully buffered frames join the run — extension
// never blocks on the transport — so the terminating NOOP (or any non-quiet
// opcode, or a frame still in flight) is simply left for the main loop.
func (c *Conn) serveQuietGetRun(first binHeader, firstKey []byte) error {
	sc := c.sc
	// The run's keys are read past the first frame's body, into their own
	// scratch; sized for a full run up front, it never moves under them.
	sc.runKey = slices.Grow(sc.runKey[:0], engine.MultiGetBatch*MaxKeyLen)
	sc.run = append(sc.run[:0], quietGet{req: first, key: firstKey})
	for len(sc.run) < engine.MultiGetBatch {
		req, key, ok := c.takeBufferedQuietGet()
		if !ok {
			break
		}
		sc.run = append(sc.run, quietGet{req: req, key: key})
	}
	sc.keys = sc.keys[:0]
	for i := range sc.run {
		sc.keys = append(sc.keys, sc.run[i].key)
	}
	results := c.worker.GetMultiInto(&sc.get, sc.keys)
	for i := range sc.run {
		r := &results[i]
		if !r.Found {
			continue // quiet miss: no reply at all
		}
		var fx [4]byte
		binary.BigEndian.PutUint32(fx[:], r.Flags)
		replyKey := []byte(nil)
		if sc.run[i].req.opcode == OpGetKQ {
			replyKey = sc.run[i].key
		}
		if err := c.binReplyNoFlush(sc.run[i].req, StatusOK, fx[:], replyKey, r.Value, r.CAS); err != nil {
			return err
		}
	}
	return c.flushIfIdle()
}

// takeBufferedQuietGet consumes and returns the next request frame iff it is
// a complete, well-formed quiet get already held in the read buffer. Any
// other frame — including a malformed quiet get, which the main loop's
// validation must refuse with a proper error reply — is left untouched.
func (c *Conn) takeBufferedQuietGet() (binHeader, []byte, bool) {
	if c.r.Buffered() < 24 {
		return binHeader{}, nil, false
	}
	hdr, err := c.r.Peek(24)
	if err != nil || hdr[0] != binMagicReq || (hdr[1] != OpGetQ && hdr[1] != OpGetKQ) {
		return binHeader{}, nil, false
	}
	keyLen := binary.BigEndian.Uint16(hdr[2:4])
	extraLen := hdr[4]
	bodyLen := binary.BigEndian.Uint32(hdr[8:12])
	if extraLen != 0 || keyLen == 0 || keyLen > MaxKeyLen || uint32(keyLen) != bodyLen {
		return binHeader{}, nil, false
	}
	if c.r.Buffered() < 24+int(bodyLen) {
		return binHeader{}, nil, false // body not fully pipelined yet: don't block
	}
	frame, _ := c.r.Peek(24 + int(bodyLen)) // fully buffered: cannot fail or block
	req := binHeader{
		opcode:  hdr[1],
		keyLen:  keyLen,
		bodyLen: bodyLen,
		opaque:  binary.BigEndian.Uint32(hdr[12:16]),
		cas:     binary.BigEndian.Uint64(hdr[16:24]),
	}
	at := len(c.sc.runKey)
	c.sc.runKey = append(c.sc.runKey, frame[24:]...)
	c.r.Discard(len(frame))
	return req, c.sc.runKey[at:], true
}

func appendUintBin(dst []byte, v uint64) []byte {
	if v == 0 {
		return append(dst, '0')
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return append(dst, buf[i:]...)
}

func (c *Conn) binReply(req binHeader, status uint16, extras, key, value []byte, cas uint64) error {
	if err := c.binReplyNoFlush(req, status, extras, key, value, cas); err != nil {
		return err
	}
	return c.flushIfIdle()
}

// binReplyNoFlush buffers one response frame. Header, extras and key are
// formatted in place in the write buffer's free tail; the value follows.
func (c *Conn) binReplyNoFlush(req binHeader, status uint16, extras, key, value []byte, cas uint64) error {
	b := appendBinHeader(c.reserve(24+len(extras)+len(key)), req, status, len(extras), len(key), len(value), cas)
	b = append(b, extras...)
	b = append(b, key...)
	c.w.Write(b)
	_, err := c.w.Write(value)
	return err
}

// appendBinHeader appends a response header to dst.
func appendBinHeader(dst []byte, req binHeader, status uint16, extraLen, keyLen, valueLen int, cas uint64) []byte {
	dst = append(dst, binMagicRes, req.opcode)
	dst = binary.BigEndian.AppendUint16(dst, uint16(keyLen))
	dst = append(dst, byte(extraLen), 0)
	dst = binary.BigEndian.AppendUint16(dst, status)
	dst = binary.BigEndian.AppendUint32(dst, uint32(extraLen+keyLen+valueLen))
	dst = binary.BigEndian.AppendUint32(dst, req.opaque)
	return binary.BigEndian.AppendUint64(dst, cas)
}

// binError replies with a status and its message, a constant, as the value.
func (c *Conn) binError(req binHeader, status uint16, msg string) error {
	c.w.Write(appendBinHeader(c.reserve(24), req, status, 0, 0, len(msg), 0))
	c.w.WriteString(msg)
	return c.flushIfIdle()
}
