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

	return c.dispatchBinaryTimed(req, extras, key, value)
}

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
// Quiet gets stay shared: their runs batch many keys across shards.
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
			// path's acceptance aligned with readAheadQuietGets, which ends
			// a run at such a frame.
			return c.binError(req, StatusInvalidArgs, "Get takes no extras")
		}
		// The quiet gets pipelined behind this one join its lookup as a run
		// (see run.go): the idiomatic multiget, GETKQ ... GETKQ NOOP, is
		// one read-only batch per shard.
		c.sc.keys = append(c.sc.keys[:0], key)
		c.readAheadQuietGets()
		return c.replyQuietGet(req, key, &c.lookUpRun()[0])

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

// replyQuietGet answers a GETQ or GETKQ: a hit's frame, nothing for a miss.
func (c *Conn) replyQuietGet(req binHeader, key []byte, r *engine.GetResult) error {
	if r.Found {
		var fx [4]byte
		binary.BigEndian.PutUint32(fx[:], r.Flags)
		replyKey := []byte(nil)
		if req.opcode == OpGetKQ {
			replyKey = key
		}
		if err := c.binReplyNoFlush(req, StatusOK, fx[:], replyKey, r.Value, r.CAS); err != nil {
			return err
		}
	}
	return c.flushIfIdle()
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
