// Package tmlib provides the transaction-safe standard-library replacements
// the paper develops in §3.4 ("Making Libraries Safe").
//
// Two techniques from the paper are reproduced:
//
//   - Safety via reimplementation: memcmp, memcpy, strlen, strncmp, strncpy,
//     strchr and realloc are re-implemented against transactional buffers
//     (stm.TBytes), with every load and store instrumented — and, as in the
//     paper, the nontransactional clones (the *Direct variants) are generated
//     from the same naive source, so the nontransactional path also loses the
//     optimized libc implementation.
//
//   - Safety via marshaling (Figure 7): data is copied from shared memory
//     onto the "stack" (a thread-local []byte), an unsafe library function
//     wrapped as [[transaction_pure]] is invoked on the private copy, and any
//     output is marshaled back. isspace, strtol, strtoull, atoi and snprintf
//     (cloned per argument combination, since variable arguments are not
//     transaction-safe) are made safe this way. htons needs no marshaling.
//
// All functions taking a *stm.Tx are transaction_safe: they perform no unsafe
// operations and may be called from atomic transactions.
package tmlib

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/stm"
)

// ---------------------------------------------------------------------------
// Safety via reimplementation

// Memcmp compares n bytes of a (from ao) and b (from bo) transactionally,
// returning -1, 0 or 1 with memcmp semantics.
func Memcmp(tx *stm.Tx, a *stm.TBytes, ao int, b *stm.TBytes, bo, n int) int {
	for i := 0; i < n; i++ {
		ca, cb := a.ByteAt(tx, ao+i), b.ByteAt(tx, bo+i)
		if ca != cb {
			if ca < cb {
				return -1
			}
			return 1
		}
	}
	return 0
}

// MemcmpLocal compares n bytes of shared (from off) with the thread-local
// buffer local, reading the shared side transactionally. Like the GCC
// instrumentation it replaces, the barriers are word-granular: one
// transactional load covers eight bytes.
func MemcmpLocal(tx *stm.Tx, shared *stm.TBytes, off int, local []byte) int {
	if off%8 == 0 {
		i := 0
		for ; i+8 <= len(local); i += 8 {
			w := shared.LoadWord(tx, off/8+i/8)
			for b := 0; b < 8; b++ {
				cs := byte(w >> (8 * b))
				if cs != local[i+b] {
					if cs < local[i+b] {
						return -1
					}
					return 1
				}
			}
		}
		local = local[i:]
		off += i
	}
	for i := range local {
		cs := shared.ByteAt(tx, off+i)
		if cs != local[i] {
			if cs < local[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Memcpy copies n bytes from src (at so) to dst (at do_), both transactional.
func Memcpy(tx *stm.Tx, dst *stm.TBytes, do_ int, src *stm.TBytes, so, n int) {
	for i := 0; i < n; i++ {
		dst.SetByteAt(tx, do_+i, src.ByteAt(tx, so+i))
	}
}

// MemcpyFromLocal copies a thread-local buffer into shared memory with
// word-granular barriers.
func MemcpyFromLocal(tx *stm.Tx, dst *stm.TBytes, off int, src []byte) {
	i := 0
	if off%8 == 0 {
		for ; i+8 <= len(src); i += 8 {
			dst.StoreWord(tx, off/8+i/8, binary.LittleEndian.Uint64(src[i:]))
		}
	}
	for ; i < len(src); i++ {
		dst.SetByteAt(tx, off+i, src[i])
	}
}

// MemcpyToLocal copies n shared bytes (from off) into a thread-local buffer
// with word-granular barriers.
func MemcpyToLocal(tx *stm.Tx, dst []byte, src *stm.TBytes, off, n int) {
	i := 0
	if off%8 == 0 {
		for ; i+8 <= n; i += 8 {
			binary.LittleEndian.PutUint64(dst[i:], src.LoadWord(tx, off/8+i/8))
		}
	}
	for ; i < n; i++ {
		dst[i] = src.ByteAt(tx, off+i)
	}
}

// Strlen returns the length of the NUL-terminated string in s, or s.Len() if
// no NUL is present.
func Strlen(tx *stm.Tx, s *stm.TBytes) int {
	for i := 0; i < s.Len(); i++ {
		if s.ByteAt(tx, i) == 0 {
			return i
		}
	}
	return s.Len()
}

// Strncmp compares at most n bytes of two NUL-terminated strings.
func Strncmp(tx *stm.Tx, a, b *stm.TBytes, n int) int {
	for i := 0; i < n; i++ {
		var ca, cb byte
		if i < a.Len() {
			ca = a.ByteAt(tx, i)
		}
		if i < b.Len() {
			cb = b.ByteAt(tx, i)
		}
		switch {
		case ca != cb:
			if ca < cb {
				return -1
			}
			return 1
		case ca == 0:
			return 0
		}
	}
	return 0
}

// Strncpy copies at most n bytes of the NUL-terminated string src into dst,
// NUL-padding like the libc function.
func Strncpy(tx *stm.Tx, dst, src *stm.TBytes, n int) {
	padding := false
	for i := 0; i < n; i++ {
		var c byte
		if !padding && i < src.Len() {
			c = src.ByteAt(tx, i)
		}
		if c == 0 {
			padding = true
		}
		dst.SetByteAt(tx, i, c)
	}
}

// Strchr returns the index of the first occurrence of c in the
// NUL-terminated string s, or -1.
func Strchr(tx *stm.Tx, s *stm.TBytes, c byte) int {
	for i := 0; i < s.Len(); i++ {
		b := s.ByteAt(tx, i)
		if b == c {
			return i
		}
		if b == 0 {
			break
		}
	}
	if c == 0 {
		return Strlen(tx, s)
	}
	return -1
}

// Realloc allocates a fresh transactional buffer of n bytes and copies
// min(n, old.Len()) bytes from old — the naive always-copy reimplementation
// from §3.4. The new buffer is captured memory: GCC would not instrument the
// stores into it, and neither do we.
func Realloc(tx *stm.Tx, old *stm.TBytes, n int) *stm.TBytes {
	fresh := stm.NewTBytes(n)
	m := old.Len()
	if n < m {
		m = n
	}
	buf := make([]byte, m)
	MemcpyToLocal(tx, buf, old, 0, m)
	fresh.WriteAllDirect(buf) // captured: not yet visible to any other thread
	return fresh
}

// ---------------------------------------------------------------------------
// Direct (nontransactional) clones.
//
// The specification requires both clones to come from the same source, so the
// nontransactional path cannot use the optimized libc either (§3.4 calls out
// this cost). These run the same naive loops on direct accessors.

// MemcmpDirect is the nontransactional clone of MemcmpLocal: the same naive
// byte loop, one direct word read per byte compared.
func MemcmpDirect(shared *stm.TBytes, off int, local []byte) int {
	for i := range local {
		cs := byte(shared.WordDirect((off+i)/8) >> (8 * ((off + i) % 8)))
		if cs != local[i] {
			if cs < local[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// StrlenDirect is the nontransactional clone of Strlen.
func StrlenDirect(s *stm.TBytes) int {
	buf := make([]byte, s.Len())
	s.ReadAllDirect(buf)
	for i, b := range buf {
		if b == 0 {
			return i
		}
	}
	return s.Len()
}

// ---------------------------------------------------------------------------
// Safety via marshaling (Figure 7)

// ErrMarshalBounds is the panic value for a marshal that would read or write
// outside its shared buffer. The panic unwinds through the transaction
// machinery with abort semantics — every transactional effect of the attempt
// is rolled back before it propagates to the Run caller — so an out-of-bounds
// marshal can never leave shared memory partially written. Recover it with
// errors.Is(r.(error), ErrMarshalBounds).
//
// Historically MarshalIn/MarshalOut deferred to the memcpy layer, whose
// raw slice panics fired mid-copy with half the bytes already in the redo or
// undo log, and marshalTrunc's snprintf clones sliced with a negative length
// when the offset lay past the end of the destination. Bounds are now checked
// up front, before a single byte moves.
var ErrMarshalBounds = errors.New("tmlib: marshal out of bounds")

func marshalCheck(op string, bufLen, off, n int) {
	if off < 0 || n < 0 || off+n > bufLen {
		panic(fmt.Errorf("%w: %s [%d:%d) in %d-byte buffer", ErrMarshalBounds, op, off, off+n, bufLen))
	}
}

// MarshalIn copies n shared bytes starting at off into a fresh thread-local
// buffer ("marshal data onto the stack"). The reads are instrumented; the
// destination is private, so its writes are not — the property that makes the
// pattern safe under GCC's write-through TM, and dangerous under buffered-
// update STMs (§3.4). Out-of-range [off, off+n) panics with ErrMarshalBounds.
func MarshalIn(tx *stm.Tx, s *stm.TBytes, off, n int) []byte {
	marshalCheck("MarshalIn", s.Len(), off, n)
	buf := make([]byte, n)
	MemcpyToLocal(tx, buf, s, off, n)
	return buf
}

// MarshalInto is MarshalIn onto a caller-provided "stack" buffer: it fills
// all of dst from the shared bytes starting at off.
func MarshalInto(tx *stm.Tx, dst []byte, s *stm.TBytes, off int) {
	marshalCheck("MarshalIn", s.Len(), off, len(dst))
	MemcpyToLocal(tx, dst, s, off, len(dst))
}

// MarshalOut copies a private buffer back into shared memory. An overflowing
// write panics with ErrMarshalBounds before any byte is stored.
func MarshalOut(tx *stm.Tx, d *stm.TBytes, off int, data []byte) {
	marshalCheck("MarshalOut", d.Len(), off, len(data))
	MemcpyFromLocal(tx, d, off, data)
}

// Cursor is a bounds-checked position in a shared buffer for sequential
// marshaling — the documented home of the marshal bounds rules. Reads and
// writes advance the cursor; Full variants treat overflow as a programming
// error (panic ErrMarshalBounds, abort semantics), Trunc follows snprintf and
// silently clips to the space remaining. A Cursor is cheap to create inside
// the transaction body; like any position derived from transactional reads it
// must not outlive the attempt that produced it.
type Cursor struct {
	tx  *stm.Tx
	buf *stm.TBytes
	off int
}

// NewCursor positions a cursor at off in buf. A cursor may start anywhere in
// [0, Len] — at Len it has zero bytes remaining; outside that range it panics
// with ErrMarshalBounds.
func NewCursor(tx *stm.Tx, buf *stm.TBytes, off int) *Cursor {
	marshalCheck("NewCursor", buf.Len(), off, 0)
	return &Cursor{tx: tx, buf: buf, off: off}
}

// Off returns the current offset.
func (c *Cursor) Off() int { return c.off }

// Remaining returns the bytes left between the cursor and the end of the
// buffer.
func (c *Cursor) Remaining() int { return c.buf.Len() - c.off }

// ReadFull marshals exactly n shared bytes into a fresh private buffer and
// advances. Panics with ErrMarshalBounds if fewer than n bytes remain.
func (c *Cursor) ReadFull(n int) []byte {
	marshalCheck("Cursor.ReadFull", c.buf.Len(), c.off, n)
	out := MarshalIn(c.tx, c.buf, c.off, n)
	c.off += n
	return out
}

// WriteFull marshals all of data into the buffer and advances. Panics with
// ErrMarshalBounds if data does not fit.
func (c *Cursor) WriteFull(data []byte) {
	marshalCheck("Cursor.WriteFull", c.buf.Len(), c.off, len(data))
	MarshalOut(c.tx, c.buf, c.off, data)
	c.off += len(data)
}

// WriteTrunc marshals as much of data as fits — snprintf truncation — and
// returns the number of bytes written. At the end of the buffer it writes
// nothing and returns 0.
func (c *Cursor) WriteTrunc(data []byte) int {
	n := len(data)
	if rem := c.Remaining(); n > rem {
		n = rem
	}
	if n > 0 {
		MarshalOut(c.tx, c.buf, c.off, data[:n])
		c.off += n
	}
	return n
}

// PureIsspace is the [[transaction_pure]] wrapper around isspace: it touches
// only its scalar argument.
func PureIsspace(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
}

// PureStrtol parses a signed decimal integer from a private buffer, returning
// the value and the number of bytes consumed (0 if none).
func PureStrtol(b []byte) (v int64, n int) {
	i := 0
	for i < len(b) && PureIsspace(b[i]) {
		i++
	}
	neg := false
	if i < len(b) && (b[i] == '+' || b[i] == '-') {
		neg = b[i] == '-'
		i++
	}
	start := i
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		v = v*10 + int64(b[i]-'0')
		i++
	}
	if i == start {
		return 0, 0
	}
	if neg {
		v = -v
	}
	return v, i
}

// PureStrtoull parses an unsigned decimal integer from a private buffer.
func PureStrtoull(b []byte) (v uint64, n int) {
	i := 0
	for i < len(b) && PureIsspace(b[i]) {
		i++
	}
	start := i
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		v = v*10 + uint64(b[i]-'0')
		i++
	}
	return v, i - start
}

// PureAtoi is atoi on a private buffer.
func PureAtoi(b []byte) int64 {
	v, _ := PureStrtol(b)
	return v
}

// Htons swaps a 16-bit value to network byte order. Input and output are both
// scalars, so no marshaling is needed (§3.4).
func Htons(v uint16) uint16 { return v<<8 | v>>8 }

// Isspace reads one shared byte transactionally and classifies it via the
// pure wrapper — marshal in, pure call, scalar result.
func Isspace(tx *stm.Tx, s *stm.TBytes, i int) bool {
	return PureIsspace(s.ByteAt(tx, i))
}

// Strtoull marshals the shared string into private memory and parses it.
func Strtoull(tx *stm.Tx, s *stm.TBytes) (uint64, int) {
	return PureStrtoull(MarshalIn(tx, s, 0, Strlen(tx, s)))
}

// Atoi marshals the shared string into private memory and parses it.
func Atoi(tx *stm.Tx, s *stm.TBytes) int64 {
	return PureAtoi(MarshalIn(tx, s, 0, Strlen(tx, s)))
}

// ---------------------------------------------------------------------------
// snprintf clones.
//
// GCC does not support variable arguments in transaction-safe functions, so
// the paper manually cloned every va-arg function per argument combination
// that appeared in the program (§3.4). These are the clones the cache engine
// needs; each formats into a private buffer via a pure fmt call, then
// marshals the result into shared memory.

// SnprintfStatUint is the clone for snprintf(buf, n, "STAT %s %llu\r\n", k, v).
// It returns the number of bytes written (truncated to dst's capacity past
// off, like snprintf).
func SnprintfStatUint(tx *stm.Tx, dst *stm.TBytes, off int, key []byte, v uint64) int {
	out := fmt.Appendf(nil, "STAT %s %d\r\n", key, v)
	return marshalTrunc(tx, dst, off, out)
}

// SnprintfValueHeader is the clone for
// snprintf(buf, n, "VALUE %s %u %u\r\n", key, flags, bytes).
func SnprintfValueHeader(tx *stm.Tx, dst *stm.TBytes, off int, key []byte, flags uint32, n int) int {
	out := fmt.Appendf(nil, "VALUE %s %d %d\r\n", key, flags, n)
	return marshalTrunc(tx, dst, off, out)
}

// SnprintfUint is the clone for snprintf(buf, n, "%llu", v) (incr/decr
// responses).
func SnprintfUint(tx *stm.Tx, dst *stm.TBytes, off int, v uint64) int {
	out := fmt.Appendf(nil, "%d", v)
	return marshalTrunc(tx, dst, off, out)
}

func marshalTrunc(tx *stm.Tx, dst *stm.TBytes, off int, out []byte) int {
	return NewCursor(tx, dst, off).WriteTrunc(out)
}
