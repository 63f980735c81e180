// Package access defines the data-access layer that lets one body of cache
// code run under every synchronization branch of the paper.
//
// The paper's transactionalization replaces lock-based critical sections with
// transactions stage by stage; at each stage, certain operations are unsafe
// inside transactions (volatile accesses, libc calls, I/O and sem_post) and
// force serialization. Here each critical section receives a Ctx:
//
//   - DirectCtx for lock-based branches (and for privatized item-lock
//     sections of the IP branches): plain and atomic accesses, optimized
//     library calls;
//   - TxCtx for transactional branches: instrumented accesses through the
//     transaction, with the per-stage Profile deciding whether volatiles,
//     libc calls and I/O are performed safely (transactional replacements,
//     tm_* reimplementations, onCommit handlers) or as unsafe operations that
//     serialize the transaction, exactly as the corresponding stage of the
//     paper behaves.
//
// Serialization events in the benchmarks are therefore emergent: they happen
// because this layer really calls stm.Tx.Unsafe at the program points where
// memcached performs the corresponding operation.
package access

import (
	"strconv"

	"repro/internal/sem"
	"repro/internal/stm"
	"repro/internal/tmlib"
)

// Profile says which categories of formerly-unsafe operations have been made
// transaction-safe at the current stage of the transactionalization ladder.
type Profile struct {
	// TxVolatiles: volatile variables and lock incr reference counts have
	// been replaced with transactional accesses (stage "Max", §3.3).
	TxVolatiles bool
	// SafeLibc: standard-library calls go to the tm_* reimplementations /
	// marshaling wrappers (stage "Lib", §3.4).
	SafeLibc bool
	// OnCommitIO: fprintf/perror/sem_post are deferred to onCommit handlers
	// (stage "onCommit", §3.5).
	OnCommitIO bool
}

// Ctx is the access context a critical section runs under.
type Ctx interface {
	// InTx reports whether this context is transactional.
	InTx() bool
	// Tx returns the transaction, or nil for a direct context.
	Tx() *stm.Tx

	// Plain shared-data access (lock-protected in lock branches,
	// instrumented in transactional ones).
	Word(w *stm.TWord) uint64
	SetWord(w *stm.TWord, v uint64)
	AddWord(w *stm.TWord, delta uint64) uint64
	Any(a *stm.TAny) any
	SetAny(a *stm.TAny, v any)

	// Volatile / C++11-atomic access (current_time, reference counts,
	// maintenance flags). Unsafe inside transactions until stage Max.
	Volatile(w *stm.TWord) uint64
	SetVolatile(w *stm.TWord, v uint64)
	AddVolatile(w *stm.TWord, delta uint64) uint64

	// Standard-library calls. Unsafe inside transactions until stage Lib.
	Memcmp(s *stm.TBytes, off int, local []byte) int
	MemcpyOut(dst []byte, s *stm.TBytes, off, n int)
	MemcpyIn(dst *stm.TBytes, off int, src []byte)
	MemcpyTB(dst *stm.TBytes, doff int, src *stm.TBytes, soff, n int)
	Strtoull(s *stm.TBytes, off, n int) (uint64, int)
	FormatSuffix(dst *stm.TBytes, off int, flags uint32, n int) int
	FormatUint(dst *stm.TBytes, off int, v uint64) int

	// I/O-adjacent operations. Unsafe inside transactions until stage
	// onCommit.
	Fprintf(log func(string), msg string)
	SemPost(s *sem.Sem)
}

// Ptr reads a typed pointer cell under c. Pointer cells are plain shared
// data — no stage of the ladder treats them as unsafe — so the only question
// is whether c carries a transaction; that also keeps them off the Ctx
// interface, whose methods cannot be generic.
func Ptr[T any](c Ctx, p *stm.TPtr[T]) *T {
	if tx := c.Tx(); tx != nil {
		return p.Load(tx)
	}
	return p.LoadDirect()
}

// SetPtr writes a typed pointer cell under c (see Ptr).
func SetPtr[T any](c Ctx, p *stm.TPtr[T], v *T) {
	if tx := c.Tx(); tx != nil {
		p.Store(tx, v)
		return
	}
	p.StoreDirect(v)
}

// ---------------------------------------------------------------------------
// DirectCtx

// DirectCtx is the nontransactional context: lock-based branches, and the
// privatized item-lock sections of the IP branches. NaiveLibc selects the
// slowed-down nontransactional clones that the single-source requirement of
// the specification forces on transactionalized builds (§3.4); lock-based
// baselines keep the optimized implementations.
type DirectCtx struct {
	NaiveLibc bool
}

// InTx reports false: this context is nontransactional.
func (DirectCtx) InTx() bool { return false }

// Tx returns nil.
func (DirectCtx) Tx() *stm.Tx { return nil }

// Word reads w directly.
func (DirectCtx) Word(w *stm.TWord) uint64 { return w.LoadDirect() }

// SetWord writes w directly.
func (DirectCtx) SetWord(w *stm.TWord, v uint64) { w.StoreDirect(v) }

// AddWord adds to w directly.
func (DirectCtx) AddWord(w *stm.TWord, delta uint64) uint64 { return w.AddDirect(delta) }

// Any reads a directly.
func (DirectCtx) Any(a *stm.TAny) any { return a.LoadDirect() }

// SetAny writes a directly.
func (DirectCtx) SetAny(a *stm.TAny, v any) { a.StoreDirect(v) }

// Volatile reads w with a plain atomic load.
func (DirectCtx) Volatile(w *stm.TWord) uint64 { return w.LoadDirect() }

// SetVolatile writes w with a plain atomic store.
func (DirectCtx) SetVolatile(w *stm.TWord, v uint64) { w.StoreDirect(v) }

// AddVolatile is the lock incr path.
func (DirectCtx) AddVolatile(w *stm.TWord, delta uint64) uint64 { return w.AddDirect(delta) }

// Memcmp compares shared bytes against a private buffer.
func (c DirectCtx) Memcmp(s *stm.TBytes, off int, local []byte) int {
	if c.NaiveLibc {
		return tmlib.MemcmpDirect(s, off, local)
	}
	// Optimized path: word-wise direct reads, no allocation.
	i := 0
	if off%8 == 0 {
		for ; i+8 <= len(local); i += 8 {
			w := s.WordDirect(off/8 + i/8)
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
	}
	for ; i < len(local); i++ {
		cs := byteAtDirect(s, off+i)
		if cs != local[i] {
			if cs < local[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// MemcpyOut copies shared bytes into a private buffer.
func (DirectCtx) MemcpyOut(dst []byte, s *stm.TBytes, off, n int) { s.ReadAtDirect(dst[:n], off) }

// MemcpyIn copies a private buffer into shared bytes.
func (DirectCtx) MemcpyIn(dst *stm.TBytes, off int, src []byte) { dst.WriteAtDirect(off, src) }

// MemcpyTB copies between shared buffers, a stack buffer's worth at a time.
func (c DirectCtx) MemcpyTB(dst *stm.TBytes, doff int, src *stm.TBytes, soff, n int) {
	var stack [256]byte
	for n > 0 {
		buf := stack[:min(n, len(stack))]
		src.ReadAtDirect(buf, soff)
		dst.WriteAtDirect(doff, buf)
		doff, soff, n = doff+len(buf), soff+len(buf), n-len(buf)
	}
}

// Strtoull parses an unsigned integer out of shared bytes.
func (c DirectCtx) Strtoull(s *stm.TBytes, off, n int) (uint64, int) {
	var stack [numBufLen]byte
	buf := numBuf(&stack, n)
	c.MemcpyOut(buf, s, off, n)
	return tmlib.PureStrtoull(buf)
}

// FormatSuffix writes the item header suffix " <flags> <len>\r\n".
func (c DirectCtx) FormatSuffix(dst *stm.TBytes, off int, flags uint32, n int) int {
	var stack [suffixBufLen]byte
	out := appendSuffix(stack[:0], flags, n)
	c.MemcpyIn(dst, off, out)
	return len(out)
}

// FormatUint writes a decimal integer.
func (c DirectCtx) FormatUint(dst *stm.TBytes, off int, v uint64) int {
	var stack [numBufLen]byte
	out := strconv.AppendUint(stack[:0], v, 10)
	c.MemcpyIn(dst, off, out)
	return len(out)
}

// Fprintf logs immediately.
func (DirectCtx) Fprintf(log func(string), msg string) {
	if log != nil {
		log(msg)
	}
}

// SemPost posts immediately.
func (DirectCtx) SemPost(s *sem.Sem) { s.Post() }

// ---------------------------------------------------------------------------
// TxCtx

// TxCtx is the transactional context for one critical section executed as a
// transaction under the given stage profile.
type TxCtx struct {
	T       *stm.Tx
	Profile Profile
}

// InTx reports true.
func (c TxCtx) InTx() bool { return true }

// Tx returns the transaction.
func (c TxCtx) Tx() *stm.Tx { return c.T }

// Word reads w through the transaction.
func (c TxCtx) Word(w *stm.TWord) uint64 { return w.Load(c.T) }

// SetWord writes w through the transaction.
func (c TxCtx) SetWord(w *stm.TWord, v uint64) { w.Store(c.T, v) }

// AddWord adds to w through the transaction.
func (c TxCtx) AddWord(w *stm.TWord, delta uint64) uint64 { return w.Add(c.T, delta) }

// Any reads a through the transaction.
func (c TxCtx) Any(a *stm.TAny) any { return a.Load(c.T) }

// SetAny writes a through the transaction.
func (c TxCtx) SetAny(a *stm.TAny, v any) { a.Store(c.T, v) }

// Volatile reads a volatile variable. Before stage Max this is unsafe: the
// transaction serializes first (in-flight switch), then reads directly.
func (c TxCtx) Volatile(w *stm.TWord) uint64 {
	if !c.Profile.TxVolatiles {
		c.T.Unsafe("volatile load")
		return w.LoadDirect()
	}
	return w.Load(c.T)
}

// SetVolatile writes a volatile variable (see Volatile).
func (c TxCtx) SetVolatile(w *stm.TWord, v uint64) {
	if !c.Profile.TxVolatiles {
		c.T.Unsafe("volatile store")
		w.StoreDirect(v)
		return
	}
	w.Store(c.T, v)
}

// AddVolatile performs a lock incr-style update (see Volatile).
func (c TxCtx) AddVolatile(w *stm.TWord, delta uint64) uint64 {
	if !c.Profile.TxVolatiles {
		c.T.Unsafe("lock incr")
		return w.AddDirect(delta)
	}
	return w.Add(c.T, delta)
}

// libcGate serializes the transaction if libc is not yet transaction-safe.
func (c TxCtx) libcGate(name string) {
	if !c.Profile.SafeLibc {
		c.T.Unsafe(name)
	}
}

// Memcmp is tm_memcmp after stage Lib, an unsafe libc call before.
func (c TxCtx) Memcmp(s *stm.TBytes, off int, local []byte) int {
	c.libcGate("memcmp")
	return tmlib.MemcmpLocal(c.T, s, off, local)
}

// MemcpyOut is tm_memcpy into private memory.
func (c TxCtx) MemcpyOut(dst []byte, s *stm.TBytes, off, n int) {
	c.libcGate("memcpy")
	tmlib.MemcpyToLocal(c.T, dst, s, off, n)
}

// MemcpyIn is tm_memcpy from private memory.
func (c TxCtx) MemcpyIn(dst *stm.TBytes, off int, src []byte) {
	c.libcGate("memcpy")
	tmlib.MemcpyFromLocal(c.T, dst, off, src)
}

// MemcpyTB is tm_memcpy between shared buffers.
func (c TxCtx) MemcpyTB(dst *stm.TBytes, doff int, src *stm.TBytes, soff, n int) {
	c.libcGate("memcpy")
	tmlib.Memcpy(c.T, dst, doff, src, soff, n)
}

// Strtoull is the marshaling-based safe strtoull after stage Lib.
func (c TxCtx) Strtoull(s *stm.TBytes, off, n int) (uint64, int) {
	c.libcGate("strtoull")
	var stack [numBufLen]byte
	buf := numBuf(&stack, n)
	tmlib.MarshalInto(c.T, buf, s, off)
	return tmlib.PureStrtoull(buf)
}

// FormatSuffix is the snprintf clone building " <flags> <len>\r\n".
func (c TxCtx) FormatSuffix(dst *stm.TBytes, off int, flags uint32, n int) int {
	c.libcGate("snprintf")
	var stack [suffixBufLen]byte
	out := appendSuffix(stack[:0], flags, n)
	tmlib.MarshalOut(c.T, dst, off, out)
	return len(out)
}

// FormatUint is the snprintf clone for "%llu".
func (c TxCtx) FormatUint(dst *stm.TBytes, off int, v uint64) int {
	c.libcGate("snprintf")
	var stack [numBufLen]byte
	out := strconv.AppendUint(stack[:0], v, 10)
	tmlib.MarshalOut(c.T, dst, off, out)
	return len(out)
}

// Fprintf either defers the write to an onCommit handler (stage onCommit) or
// serializes the transaction and writes immediately.
func (c TxCtx) Fprintf(log func(string), msg string) {
	if log == nil {
		return
	}
	if c.Profile.OnCommitIO {
		c.T.OnCommit(func() { log(msg) })
		return
	}
	c.T.Unsafe("fprintf")
	log(msg)
}

// SemPost either defers the post to an onCommit handler (safe: the only use
// of condition synchronization is waking maintenance threads, §3.5) or
// serializes the transaction and posts immediately.
func (c TxCtx) SemPost(s *sem.Sem) {
	if c.Profile.OnCommitIO {
		c.T.OnCommit(s.PostFunc())
		return
	}
	c.T.Unsafe("sem_post")
	s.Post()
}

// ---------------------------------------------------------------------------
// helpers

func byteAtDirect(s *stm.TBytes, i int) byte { return byte(s.WordDirect(i/8) >> (8 * (i % 8))) }

// The "stack" the marshaling wrappers format on (Figure 7): fixed arrays in
// the caller's frame, so a suffix or a counter costs no allocation.
const (
	numBufLen    = 24 // a uint64 in decimal is at most 20 bytes
	suffixBufLen = 40 // " <uint32> <int>\r\n"
)

// numBuf returns n bytes to marshal a number's text into: the caller's stack
// array when it fits — every value incr/decr can succeed on does — and the
// heap for an over-long non-numeric value, which strtoull must still scan.
func numBuf(stack *[numBufLen]byte, n int) []byte {
	if n <= len(stack) {
		return stack[:n]
	}
	return make([]byte, n)
}

func appendSuffix(dst []byte, flags uint32, n int) []byte {
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(flags), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(n), 10)
	return append(dst, '\r', '\n')
}

var (
	_ Ctx = DirectCtx{}
	_ Ctx = TxCtx{}
)
