//go:build linux

package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
)

// Binary protocol constants (the subset the benchmark speaks).
const (
	binReq    = 0x80
	binRes    = 0x81
	binOpGet  = 0x00
	binOpSet  = 0x01
	binHdrLen = 24
)

// encode appends the wire form of c to dst. keys backs opMultiGet commands.
func (sp *spec) encode(dst []byte, c cmd, keys []int) []byte {
	if sp.binary {
		return sp.encodeBinary(dst, c)
	}
	switch c.kind {
	case opGet:
		dst = append(dst, "get "...)
		dst = appendKey(dst, c.key)
	case opMultiGet:
		dst = append(dst, "get"...)
		for _, k := range keys[c.off : c.off+c.n] {
			dst = append(dst, ' ')
			dst = appendKey(dst, k)
		}
	case opIncr:
		dst = append(dst, "incr "...)
		dst = appendKey(dst, c.key)
		dst = append(dst, " 1"...)
	case opSet:
		val := sp.storedValue(c.key)
		dst = append(dst, "set "...)
		dst = appendKey(dst, c.key)
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, uint64(keyFlags(c.key)), 10)
		dst = append(dst, " 0 "...)
		dst = strconv.AppendUint(dst, uint64(len(val)), 10)
		dst = append(dst, "\r\n"...)
		dst = append(dst, val...)
	}
	return append(dst, "\r\n"...)
}

// storedValue is what a set writes: the key's pattern window, or "0" for a
// counter.
func (sp *spec) storedValue(idx int) []byte {
	if sp.counters {
		return counterZero
	}
	return sp.value(idx)
}

var counterZero = []byte("0")

func (sp *spec) encodeBinary(dst []byte, c cmd) []byte {
	var hdr [binHdrLen]byte
	hdr[0] = binReq
	binary.BigEndian.PutUint16(hdr[2:4], keyLen)
	binary.BigEndian.PutUint32(hdr[12:16], c.opaque)
	switch c.kind {
	case opGet:
		hdr[1] = binOpGet
		binary.BigEndian.PutUint32(hdr[8:12], keyLen)
		dst = append(dst, hdr[:]...)
		return appendKey(dst, c.key)
	case opSet:
		val := sp.storedValue(c.key)
		hdr[1] = binOpSet
		hdr[4] = 8 // extras: flags, exptime
		binary.BigEndian.PutUint32(hdr[8:12], uint32(8+keyLen+len(val)))
		dst = append(dst, hdr[:]...)
		var ex [8]byte
		binary.BigEndian.PutUint32(ex[0:4], keyFlags(c.key))
		dst = append(dst, ex[:]...)
		dst = appendKey(dst, c.key)
		return append(dst, val...)
	}
	panic("benchmark: binary workloads use get and set only")
}

// checker reads and verifies the replies of one connection. A reply that is
// well-formed but wrong (error status, wrong payload, a miss where the
// working set fits) is a failed command; a reply that cannot be framed is an
// error, because nothing after it on the connection can be trusted.
type checker struct {
	sp *spec
	br *bufio.Reader

	gets, hits uint64 // key lookups and how many found a value
	tally

	// hot_incr: per counter, incrs acknowledged on this connection and the
	// highest value it has seen (a counter never goes backwards).
	acked, seen []uint64

	one [1]int          // backing store for a single get's key list
	hdr [binHdrLen]byte // binary reply header
}

// tally counts commands and the ones that failed verification. A checker
// keeps one per connection; results add them up.
type tally struct {
	attempted, failed uint64
	firstFail         string // first failure, for the report
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstFail == "" {
		t.firstFail = o.firstFail
	}
}

func newChecker(sp *spec, r io.Reader) *checker {
	// The buffer holds the largest value plus its header, so a payload is
	// always compared in place.
	c := &checker{sp: sp}
	if r != nil {
		c.br = bufio.NewReaderSize(r, 64<<10)
	}
	if sp.counters {
		c.acked = make([]uint64, sp.keys)
		c.seen = make([]uint64, sp.keys)
	}
	return c
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if c.firstFail == "" {
		c.firstFail = fmt.Sprintf(format, args...)
	}
}

// readRound consumes the replies to every command of r.
func (c *checker) readRound(r *round) error {
	for i := range r.cmds {
		c.attempted++
		var err error
		if c.sp.binary {
			err = c.readBinary(&r.cmds[i])
		} else {
			err = c.readText(&r.cmds[i], r.keys)
		}
		if err != nil {
			return fmt.Errorf("%s reply to %s %d: %w", c.sp.name, opNames[r.cmds[i].kind], r.cmds[i].key, err)
		}
	}
	return nil
}

func (c *checker) line() ([]byte, error) {
	l, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if len(l) < 2 || l[len(l)-2] != '\r' {
		return nil, fmt.Errorf("line %q not CRLF-terminated", l)
	}
	return l[:len(l)-2], nil
}

// counterValue checks a counter observation against what this connection
// already saw: strictly greater after its own incr, never smaller otherwise.
func (c *checker) counterValue(idx int, raw []byte, afterIncr bool) {
	n, ok := atoi(raw)
	v := uint64(n)
	switch {
	case !ok:
		c.fail("counter %d: non-numeric %q", idx, raw)
	case v < c.seen[idx] || afterIncr && v == c.seen[idx]:
		c.fail("counter %d went from %d to %d", idx, c.seen[idx], v)
	default:
		c.seen[idx] = v
	}
	if afterIncr && ok {
		c.acked[idx]++
	}
}

// found checks a value a lookup returned against its key.
func (c *checker) found(idx int, flags uint32, val []byte) bool {
	if c.sp.counters {
		c.counterValue(idx, val, false)
		return true
	}
	return flags == keyFlags(idx) && bytes.Equal(val, c.sp.value(idx))
}

// lookup accounts for one in-process key lookup (the engine rung, which has
// no reply to parse).
func (c *checker) lookup(idx int, flags uint32, val []byte, ok bool) {
	c.gets++
	switch {
	case !ok:
		if c.sp.fits {
			c.fail("get %d: miss on a working set that fits", idx)
		}
	case !c.found(idx, flags, val):
		c.fail("get %d: wrong flags or payload", idx)
	default:
		c.hits++
	}
}

func (c *checker) readText(cm *cmd, keys []int) error {
	switch cm.kind {
	case opSet:
		l, err := c.line()
		if err != nil {
			return err
		}
		if string(l) != "STORED" {
			c.fail("set %d: %q", cm.key, l)
		}
		return nil
	case opIncr:
		l, err := c.line()
		if err != nil {
			return err
		}
		c.counterValue(cm.key, l, true)
		return nil
	}
	// get / multi-get: VALUE blocks for the found keys in request order, END.
	want := keys[cm.off : cm.off+cm.n]
	if cm.kind == opGet {
		c.one[0] = cm.key
		want = c.one[:]
	}
	c.gets += uint64(len(want))
	bad := false
	found := 0
	next := 0 // first requested key a VALUE may still answer
	for {
		l, err := c.line()
		if err != nil {
			return err
		}
		if string(l) == "END" {
			break
		}
		full := l
		tag, l := field(l)
		key, l := field(l)
		fl, l := field(l)
		sz, l := field(l)
		flags, ok1 := atoi(fl)
		n, ok2 := atoi(sz)
		if string(tag) != "VALUE" || len(l) != 0 || !ok1 || !ok2 || n > c.br.Size()-2 {
			return fmt.Errorf("unexpected line %q", full)
		}
		idx := keyIndex(key)
		for next < len(want) && want[next] != idx {
			next++
		}
		b, err := c.br.Peek(n + 2)
		if err != nil {
			return err
		}
		switch {
		case next == len(want) || b[n] != '\r' || b[n+1] != '\n':
			bad = true
		default:
			bad = bad || !c.found(idx, uint32(flags), b[:n])
		}
		if next < len(want) {
			next++
			found++
		}
		c.br.Discard(n + 2)
	}
	c.hits += uint64(found)
	switch {
	case bad:
		c.fail("get %d: wrong key, flags or payload", cm.key)
	case c.sp.fits && found < len(want):
		c.fail("get %d: miss on a working set that fits", cm.key)
	}
	return nil
}

// field splits off the next space-separated field of a reply line.
func field(l []byte) (f, rest []byte) {
	if i := bytes.IndexByte(l, ' '); i >= 0 {
		return l[:i], l[i+1:]
	}
	return l, nil
}

// atoi parses a non-negative decimal without allocating.
func atoi(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	n := 0
	for _, d := range b {
		if d < '0' || d > '9' {
			return 0, false
		}
		n = n*10 + int(d-'0')
	}
	return n, true
}

func (c *checker) readBinary(cm *cmd) error {
	hdr := c.hdr[:]
	if _, err := io.ReadFull(c.br, hdr); err != nil {
		return err
	}
	status := binary.BigEndian.Uint16(hdr[6:8])
	bodyLen := int(binary.BigEndian.Uint32(hdr[8:12]))
	extLen, kLen := int(hdr[4]), int(binary.BigEndian.Uint16(hdr[2:4]))
	if hdr[0] != binRes || bodyLen > c.br.Size() || extLen+kLen > bodyLen {
		return fmt.Errorf("bad binary header % x", hdr)
	}
	body, err := c.br.Peek(bodyLen)
	if err != nil {
		return err
	}
	defer c.br.Discard(bodyLen)
	if binary.BigEndian.Uint32(hdr[12:16]) != cm.opaque {
		return fmt.Errorf("opaque %d, want %d", binary.BigEndian.Uint32(hdr[12:16]), cm.opaque)
	}
	switch cm.kind {
	case opSet:
		if hdr[1] != binOpSet || status != 0 {
			c.fail("set %d: opcode 0x%02x status %d", cm.key, hdr[1], status)
		}
	case opGet:
		c.gets++
		switch {
		case hdr[1] != binOpGet || (status != 0 && status != 1):
			c.fail("get %d: opcode 0x%02x status %d", cm.key, hdr[1], status)
		case status == 1:
			if c.sp.fits {
				c.fail("get %d: miss on a working set that fits", cm.key)
			}
		default:
			c.hits++
			if extLen != 4 || !c.found(cm.key, binary.BigEndian.Uint32(body[:4]), body[extLen+kLen:]) {
				c.fail("get %d: wrong flags or payload", cm.key)
			}
		}
	}
	return nil
}
