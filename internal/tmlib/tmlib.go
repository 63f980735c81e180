// Package tmlib provides the transaction-safe standard-library replacements
// the paper develops in §3.4 ("Making Libraries Safe"), limited to the ones
// the cache's transactions call through internal/access.
//
// Two techniques from the paper are reproduced:
//
//   - Safety via reimplementation: memcmp and memcpy are re-implemented
//     against transactional buffers (stm.TBytes), one barrier per 64-byte
//     stripe — and, as in the paper, the nontransactional memcmp clone
//     (MemcmpDirect) is the same naive loop on direct accessors, so the
//     nontransactional path also loses the optimized libc implementation.
//
//   - Safety via marshaling (Figure 7): data is copied from shared memory
//     onto the "stack" (a thread-local []byte), an unsafe library function
//     wrapped as [[transaction_pure]] is invoked on the private copy, and any
//     output is marshaled back. strtoull (with the isspace it calls) is made
//     safe this way; the snprintf clones in internal/access format onto the
//     stack and marshal out through MarshalOut.
//
// The paper's §3.4 also makes strlen, strncmp, strncpy, strchr, realloc,
// strtol, atoi and htons safe. No transaction here calls them, so they are
// absent. Keys and values carry explicit lengths (memcached's nkey and
// nbytes), so no NUL-terminated string function runs on shared memory. Items
// live in fixed slab chunks and are never resized in place, so nothing
// reallocs. Command arguments are parsed, and binary headers byte-swapped, in
// the protocol layer before any transaction begins. The only number parsed
// inside a transaction is incr/decr's stored value.
//
// All functions taking a *stm.Tx are transaction_safe: they perform no unsafe
// operations and may be called from atomic transactions.
package tmlib

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/stm"
)

// ---------------------------------------------------------------------------
// Safety via reimplementation

// MemcmpLocal compares shared bytes from off with the thread-local buffer
// local, reading the shared side transactionally a stripe at a time: as in
// libitm's memtransfer barrier, one read barrier covers up to 64 bytes
// (stm.StripeBytes), and the comparison stops at the first stripe that
// differs.
func MemcmpLocal(tx *stm.Tx, shared *stm.TBytes, off int, local []byte) int {
	var line [stm.StripeBytes]byte
	for len(local) > 0 {
		n := min(len(local), stm.StripeBytes-off%stm.StripeBytes)
		shared.ReadAt(tx, line[:n], off)
		if c := bytes.Compare(line[:n], local[:n]); c != 0 {
			return c
		}
		off, local = off+n, local[n:]
	}
	return 0
}

// MemcpyFromLocal copies a thread-local buffer into shared memory from off,
// one write barrier per stripe (stm.TBytes.WriteAt).
func MemcpyFromLocal(tx *stm.Tx, dst *stm.TBytes, off int, src []byte) {
	dst.WriteAt(tx, off, src)
}

// MemcpyToLocal copies n shared bytes (from off) into a thread-local buffer,
// one read barrier per stripe (stm.TBytes.ReadAt).
func MemcpyToLocal(tx *stm.Tx, dst []byte, src *stm.TBytes, off, n int) {
	src.ReadAt(tx, dst[:n], off)
}

// ---------------------------------------------------------------------------
// Direct (nontransactional) clone.
//
// The specification requires both clones to come from the same source, so the
// nontransactional path cannot use the optimized libc either (§3.4 calls out
// this cost).

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

// ---------------------------------------------------------------------------
// Safety via marshaling (Figure 7)

// ErrMarshalBounds is the panic value for a marshal that would read or write
// outside its shared buffer. The panic unwinds through the transaction
// machinery with abort semantics — every transactional effect of the attempt
// is rolled back before it propagates to the Run caller — so an out-of-bounds
// marshal can never leave shared memory partially written. Recover it with
// errors.Is(r.(error), ErrMarshalBounds). Bounds are checked up front, before
// a single byte moves.
var ErrMarshalBounds = errors.New("tmlib: marshal out of bounds")

func marshalCheck(op string, bufLen, off, n int) {
	if off < 0 || n < 0 || off+n > bufLen {
		panic(fmt.Errorf("%w: %s [%d:%d) in %d-byte buffer", ErrMarshalBounds, op, off, off+n, bufLen))
	}
}

// MarshalInto copies the shared bytes starting at off onto a caller-provided
// "stack" buffer, filling all of dst ("marshal data onto the stack"). The
// reads are instrumented; the destination is private, so its writes are not —
// the property that makes the pattern safe under GCC's write-through TM, and
// dangerous under buffered-update STMs (§3.4). An out-of-range read panics
// with ErrMarshalBounds.
func MarshalInto(tx *stm.Tx, dst []byte, s *stm.TBytes, off int) {
	marshalCheck("MarshalInto", s.Len(), off, len(dst))
	MemcpyToLocal(tx, dst, s, off, len(dst))
}

// MarshalOut copies a private buffer back into shared memory. An overflowing
// write panics with ErrMarshalBounds before any byte is stored.
func MarshalOut(tx *stm.Tx, d *stm.TBytes, off int, data []byte) {
	marshalCheck("MarshalOut", d.Len(), off, len(data))
	MemcpyFromLocal(tx, d, off, data)
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

// PureStrtoull parses an unsigned decimal integer from a private buffer,
// skipping leading white space, and returns the value and the number of
// digits consumed (0 if none).
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
