package stm

import (
	"encoding/binary"
	"sync/atomic"

	"repro/internal/txobs"
)

// ids numbers transactional locations. Location ids, not addresses, feed the
// orec hash; this sidesteps Go's lack of stable addresses-as-integers without
// package unsafe.
var ids atomic.Uint64

func nextID() uint64 { return ids.Add(1) }

// ReserveIDs reserves n consecutive location ids and returns the first. A
// structure that embeds its cells by value (an item, a bucket array) draws all
// of them from one block and hands them out with the cells' Init methods.
func ReserveIDs(n int) uint64 { return ids.Add(uint64(n)) - uint64(n) + 1 }

func labeled(id uint64, l txobs.Label) uint64 { return id&labelMask | uint64(l)<<labelShift }

// Location ids carry an optional txobs label in their high bits: the low 48
// bits are the allocation counter, the top 16 a Label naming the data
// structure the location belongs to. An aborting transaction can then
// attribute the conflicting access to a named structure from the id alone —
// no map lookup, no pointer chasing, nothing on the commit fast path.
const (
	labelShift = 48
	labelMask  = uint64(1)<<labelShift - 1
)

func labelOf(id uint64) txobs.Label { return txobs.Label(id >> labelShift) }

// Label tags the location for conflict attribution in the observability
// layer. Call it at creation, before the location is shared; it returns the
// receiver so constructors chain: stm.NewTWord(0).Label(refcountLabel).
func (t *TWord) Label(l txobs.Label) *TWord {
	t.id = labeled(t.id, l)
	return t
}

// Label tags every stripe of the buffer for conflict attribution (see
// TWord.Label).
func (t *TBytes) Label(l txobs.Label) *TBytes {
	t.baseID = labeled(t.baseID, l)
	return t
}

// TWord is a word-sized transactional location (counters, booleans, sizes,
// reference counts). The zero value is not usable; create with NewTWord, or
// embed it by value and call Init.
type TWord struct {
	id uint64
	w  atomic.Uint64
}

// NewTWord creates a word location holding v.
func NewTWord(v uint64) *TWord {
	t := &TWord{id: nextID()}
	t.w.Store(v)
	return t
}

// Init makes an embedded word usable in place: id comes from a ReserveIDs
// block, l labels it for conflict attribution, v is the initial value. Call
// it before the enclosing structure is shared.
func (t *TWord) Init(id uint64, l txobs.Label, v uint64) {
	t.id = labeled(id, l)
	t.w.Store(v)
}

// LabelOf returns the label conflicts on this word are attributed to.
func (t *TWord) LabelOf() txobs.Label { return labelOf(t.id) }

// Load reads the word inside tx.
func (t *TWord) Load(tx *Tx) uint64 { return tx.loadWord(t.id, &t.w) }

// Store writes the word inside tx.
func (t *TWord) Store(tx *Tx, v uint64) { tx.storeWord(t.id, &t.w, v) }

// Add adds delta (two's-complement) inside tx and returns the new value.
func (t *TWord) Add(tx *Tx, delta uint64) uint64 {
	v := t.Load(tx) + delta
	t.Store(tx, v)
	return v
}

// LoadDirect reads the word outside any transaction. It is the privatized /
// nontransactional access path (only correct when the caller has otherwise
// excluded transactional writers, e.g. by privatization).
func (t *TWord) LoadDirect() uint64 { return t.w.Load() }

// StoreDirect writes the word outside any transaction.
func (t *TWord) StoreDirect(v uint64) { t.w.Store(v) }

// AddDirect atomically adds delta outside any transaction and returns the new
// value — the analogue of memcached's inline-assembly `lock incr` reference
// count updates (a C++11-atomic-like access, unsafe inside transactions).
func (t *TWord) AddDirect(delta uint64) uint64 { return t.w.Add(delta) }

// CompareAndSwapDirect performs an atomic compare-and-swap outside any
// transaction (trylock-style volatile usage).
func (t *TWord) CompareAndSwapDirect(old, new uint64) bool {
	return t.w.CompareAndSwap(old, new)
}

// ptrCell is the type-erased view of a TPtr[T] that the barriers and the
// transaction logs work with. A *T in an interface is pointer-shaped, so
// neither reading a cell into the log nor restoring it allocates.
type ptrCell interface {
	cellID() uint64
	loadRaw() any   // always a *T, possibly nil
	storeRaw(v any) // v is a value loadRaw returned or Store was given
}

// TPtr is a transactional location holding a *T (item links, chain heads,
// LRU heads and tails, hash-table bucket arrays). The pointer itself is the
// atomically replaced word, so a store allocates nothing. The zero value
// is not usable; embed it by value and call Init.
type TPtr[T any] struct {
	id uint64
	p  atomic.Pointer[T]
}

// Init makes an embedded pointer cell usable in place (see TWord.Init).
func (t *TPtr[T]) Init(id uint64, l txobs.Label, v *T) {
	t.id = labeled(id, l)
	t.p.Store(v)
}

// LabelOf returns the label conflicts on this cell are attributed to.
func (t *TPtr[T]) LabelOf() txobs.Label { return labelOf(t.id) }

func (t *TPtr[T]) cellID() uint64 { return t.id }
func (t *TPtr[T]) loadRaw() any   { return t.p.Load() }
func (t *TPtr[T]) storeRaw(v any) { t.p.Store(v.(*T)) }

// Load reads the pointer inside tx.
func (t *TPtr[T]) Load(tx *Tx) *T { return tx.loadPtr(t).(*T) }

// Store writes the pointer inside tx.
func (t *TPtr[T]) Store(tx *Tx, v *T) { tx.storePtr(t, v) }

// LoadDirect reads the pointer outside any transaction (privatized access).
func (t *TPtr[T]) LoadDirect() *T { return t.p.Load() }

// StoreDirect writes the pointer outside any transaction.
func (t *TPtr[T]) StoreDirect(v *T) { t.p.Store(v) }

// StripeBytes is the width of a TBytes stripe: the bytes that share one
// location id, and so one orec. It is a cache line.
const StripeBytes = 64

const stripeWords = StripeBytes / 8

// TBytes is a transactional byte buffer, stored as 64-bit words and
// barriered in 64-byte stripes. Word i has location id baseID + i/8, so the
// eight words of a stripe share one orec, as a block of addresses shares one
// orec in GCC's libitm. The range accessors ReadAt and WriteAt — and through
// them tm_memcpy and tm_memcmp in tmlib — take one barrier per stripe the
// range touches, as libitm's ml_wt memtransfer barrier walks the orecs that
// cover a memcpy once: under MLWT and read-only Lazy a stripe costs one
// orec sample before and one after the copy, one read-set entry, and on the
// write side one orec acquisition (the undo log stays per word). Lazy
// read-write and NOrec still log every word of the range in their value and
// redo logs, which is the word-vs-byte logging cost the paper measures for
// memcpy under buffered-update algorithms. Length is fixed at creation, like a C allocation. Create with
// NewTBytes, or embed it by value and call Init.
type TBytes struct {
	baseID uint64
	n      int
	words  []atomic.Uint64
}

// NewTBytes allocates a transactional buffer of n bytes, zero-filled.
func NewTBytes(n int) *TBytes {
	t := &TBytes{}
	t.Init(ReserveIDs((n+7)/8), txobs.NoLabel, n)
	return t
}

// Init makes an embedded buffer usable in place: n zero bytes drawing on the
// (n+7)/8 ids starting at baseID — one per word, of which the stripes use the
// first (n+63)/64 (see TWord.Init).
func (t *TBytes) Init(baseID uint64, l txobs.Label, n int) {
	t.baseID = labeled(baseID, l)
	t.n = n
	t.words = make([]atomic.Uint64, (n+7)/8)
}

// NewTBytesFrom allocates a transactional buffer holding a copy of src,
// written nontransactionally (fresh, captured memory — GCC would not
// instrument these stores either).
func NewTBytesFrom(src []byte) *TBytes {
	t := NewTBytes(len(src))
	t.WriteAtDirect(0, src)
	return t
}

// LabelOf returns the label conflicts on this buffer's stripes are
// attributed to.
func (t *TBytes) LabelOf() txobs.Label { return labelOf(t.baseID) }

// Len returns the buffer length in bytes.
func (t *TBytes) Len() int { return t.n }

// stripeID is the location id of the stripe holding byte off.
func (t *TBytes) stripeID(off int) uint64 { return t.baseID + uint64(off/StripeBytes) }

// LoadWord reads word i (8 bytes) inside tx, through the barrier of its
// stripe.
func (t *TBytes) LoadWord(tx *Tx, i int) uint64 {
	return tx.loadWord(t.stripeID(8*i), &t.words[i])
}

// StoreWord writes word i inside tx.
func (t *TBytes) StoreWord(tx *Tx, i int, v uint64) {
	tx.storeWord(t.stripeID(8*i), &t.words[i], v)
}

// WordDirect reads word i outside any transaction (privatized access).
func (t *TBytes) WordDirect(i int) uint64 { return t.words[i].Load() }

// stripeSpan returns the part of [off, end) that lies in off's stripe, as the
// byte offset lo of its first word, the end e of the part, and the byte
// offset hi past its last word.
func stripeSpan(off, end int) (lo, e, hi int) {
	e = min(end, off-off%StripeBytes+StripeBytes)
	return off &^ 7, e, (e + 7) &^ 7
}

// ReadAt fills dst from byte offset off inside tx, with one barrier per
// stripe the range touches (see TBytes).
func (t *TBytes) ReadAt(tx *Tx, dst []byte, off int) {
	if off < 0 || off+len(dst) > t.n {
		panic("stm: TBytes.ReadAt: range outside the buffer")
	}
	var ws [stripeWords]uint64
	var line [StripeBytes]byte
	for end := off + len(dst); off < end; {
		lo, e, hi := stripeSpan(off, end)
		k := (hi - lo) / 8
		tx.loadStripe(t.stripeID(off), t.words[lo/8:hi/8], ws[:k])
		for j, w := range ws[:k] {
			binary.LittleEndian.PutUint64(line[8*j:], w)
		}
		n := copy(dst, line[off-lo:e-lo])
		dst, off = dst[n:], e
	}
}

// WriteAt copies src to byte offset off inside tx, with one write barrier
// per stripe the range touches; a ragged first or last word is read through
// the word barrier first, so the bytes around the range keep their values.
func (t *TBytes) WriteAt(tx *Tx, off int, src []byte) {
	if off < 0 || off+len(src) > t.n {
		panic("stm: TBytes.WriteAt: range outside the buffer")
	}
	var ws [stripeWords]uint64
	var line [StripeBytes]byte
	for end := off + len(src); off < end; {
		lo, e, hi := stripeSpan(off, end)
		k, id := (hi-lo)/8, t.stripeID(off)
		if lo < off {
			binary.LittleEndian.PutUint64(line[:], tx.loadWord(id, &t.words[lo/8]))
		}
		if e < hi && (lo == off || k > 1) {
			binary.LittleEndian.PutUint64(line[hi-8-lo:], tx.loadWord(id, &t.words[hi/8-1]))
		}
		n := copy(line[off-lo:e-lo], src)
		for j := range ws[:k] {
			ws[j] = binary.LittleEndian.Uint64(line[8*j:])
		}
		tx.storeStripe(id, t.words[lo/8:hi/8], ws[:k])
		src, off = src[n:], e
	}
}

// ReadAtDirect fills dst from byte offset off, nontransactionally: one load
// per whole word, byte by byte only over a ragged head and tail.
func (t *TBytes) ReadAtDirect(dst []byte, off int) {
	if off < 0 || off+len(dst) > t.n {
		panic("stm: TBytes.ReadAtDirect: range outside the buffer")
	}
	for ; len(dst) > 0 && off%8 != 0; off, dst = off+1, dst[1:] {
		dst[0] = byte(t.words[off/8].Load() >> (8 * (off % 8)))
	}
	words := t.words[off/8:]
	for ; len(dst) >= 8; words, dst = words[1:], dst[8:] {
		binary.LittleEndian.PutUint64(dst, words[0].Load())
	}
	if len(dst) > 0 {
		w := words[0].Load()
		for b := range dst {
			dst[b] = byte(w >> (8 * b))
		}
	}
}

// WriteAtDirect copies src to byte offset off, nontransactionally (memory the
// caller owns privately): one store per whole word, a read-modify-write of
// the word only for a ragged head and tail.
func (t *TBytes) WriteAtDirect(off int, src []byte) {
	if off < 0 || off+len(src) > t.n {
		panic("stm: TBytes.WriteAtDirect: range outside the buffer")
	}
	for ; len(src) > 0 && off%8 != 0; off, src = off+1, src[1:] {
		w, sh := &t.words[off/8], 8*(off%8)
		w.Store(w.Load()&^(0xFF<<sh) | uint64(src[0])<<sh)
	}
	words := t.words[off/8:]
	for ; len(src) >= 8; words, src = words[1:], src[8:] {
		words[0].Store(binary.LittleEndian.Uint64(src))
	}
	if len(src) > 0 {
		w := words[0].Load()
		for b, c := range src {
			w = w&^(0xFF<<(8*b)) | uint64(c)<<(8*b)
		}
		words[0].Store(w)
	}
}

// Bytes returns a fresh nontransactional copy (direct reads).
func (t *TBytes) Bytes() []byte {
	dst := make([]byte, t.n)
	t.ReadAtDirect(dst, 0)
	return dst
}
