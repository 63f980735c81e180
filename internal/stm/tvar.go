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

// Label tags the location for conflict attribution (see TWord.Label).
func (t *TAny) Label(l txobs.Label) *TAny {
	t.c.id = labeled(t.c.id, l)
	return t
}

// Label tags every word of the buffer for conflict attribution (see
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
// LRU heads and tails). Unlike TAny it needs no box: the pointer itself is
// the atomically replaced word, so a store allocates nothing. The zero value
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

// box wraps an arbitrary value so TAny can be read and written atomically.
type box struct{ v any }

// TAny is a transactional location holding an arbitrary value: a pointer
// cell whose target is a freshly allocated box per store. Locations that only
// ever hold one pointer type should be a TPtr instead. The zero value is not
// usable; create with NewTAny.
type TAny struct{ c TPtr[box] }

// NewTAny creates a location holding v.
func NewTAny(v any) *TAny {
	t := &TAny{}
	t.c.Init(nextID(), txobs.NoLabel, &box{v: v})
	return t
}

// Load reads the value inside tx.
func (t *TAny) Load(tx *Tx) any { return t.c.Load(tx).v }

// Store writes the value inside tx.
func (t *TAny) Store(tx *Tx, v any) { t.c.Store(tx, &box{v: v}) }

// LoadDirect reads the value outside any transaction (privatized access).
func (t *TAny) LoadDirect() any { return t.c.LoadDirect().v }

// StoreDirect writes the value outside any transaction.
func (t *TAny) StoreDirect(v any) { t.c.StoreDirect(&box{v: v}) }

// TBytes is a transactional byte buffer, stored as 64-bit words so that the
// word-granular barriers (and the word-vs-byte logging costs the paper
// discusses for memcpy under buffered-update algorithms) are faithfully
// reproduced. Length is fixed at creation, like a C allocation. Create with
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

// Init makes an embedded buffer usable in place: n zero bytes whose words
// take the (n+7)/8 ids starting at baseID (see TWord.Init).
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
	t.WriteAllDirect(src)
	return t
}

// LabelOf returns the label conflicts on this buffer's words are attributed
// to.
func (t *TBytes) LabelOf() txobs.Label { return labelOf(t.baseID) }

// Len returns the buffer length in bytes.
func (t *TBytes) Len() int { return t.n }

// LoadWord reads word i (8 bytes) inside tx.
func (t *TBytes) LoadWord(tx *Tx, i int) uint64 {
	return tx.loadWord(t.baseID+uint64(i), &t.words[i])
}

// StoreWord writes word i inside tx.
func (t *TBytes) StoreWord(tx *Tx, i int, v uint64) {
	tx.storeWord(t.baseID+uint64(i), &t.words[i], v)
}

// Words returns the number of 64-bit words backing the buffer.
func (t *TBytes) Words() int { return len(t.words) }

// WordDirect reads word i outside any transaction (privatized access).
func (t *TBytes) WordDirect(i int) uint64 { return t.words[i].Load() }

// SetWordDirect writes word i outside any transaction.
func (t *TBytes) SetWordDirect(i int, v uint64) { t.words[i].Store(v) }

// ByteAt reads byte i inside tx (a word-granular read, as instrumented code
// would issue).
func (t *TBytes) ByteAt(tx *Tx, i int) byte {
	return byte(t.LoadWord(tx, i/8) >> (8 * (i % 8)))
}

// SetByteAt writes byte i inside tx via a word read-modify-write.
func (t *TBytes) SetByteAt(tx *Tx, i int, b byte) {
	w := t.LoadWord(tx, i/8)
	sh := 8 * (i % 8)
	w = w&^(0xFF<<sh) | uint64(b)<<sh
	t.StoreWord(tx, i/8, w)
}

// ReadAll copies the whole buffer out inside tx.
func (t *TBytes) ReadAll(tx *Tx, dst []byte) {
	if len(dst) < t.n {
		panic("stm: TBytes.ReadAll: destination too short")
	}
	for i := 0; i < len(t.words); i++ {
		w := t.LoadWord(tx, i)
		for b := 0; b < 8 && i*8+b < t.n; b++ {
			dst[i*8+b] = byte(w >> (8 * b))
		}
	}
}

// WriteAll copies src into the buffer inside tx.
func (t *TBytes) WriteAll(tx *Tx, src []byte) {
	if len(src) > t.n {
		panic("stm: TBytes.WriteAll: source too long")
	}
	for i := 0; i*8 < len(src); i++ {
		var w uint64
		full := i*8+8 <= len(src)
		if !full {
			w = t.LoadWord(tx, i)
		}
		for b := 0; b < 8 && i*8+b < len(src); b++ {
			sh := 8 * b
			w = w&^(0xFF<<sh) | uint64(src[i*8+b])<<sh
		}
		t.StoreWord(tx, i, w)
	}
}

// ReadAllDirect copies the buffer out nontransactionally (privatized access).
func (t *TBytes) ReadAllDirect(dst []byte) {
	if len(dst) < t.n {
		panic("stm: TBytes.ReadAllDirect: destination too short")
	}
	t.ReadAtDirect(dst[:t.n], 0)
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

// WriteAllDirect copies src into the buffer nontransactionally.
func (t *TBytes) WriteAllDirect(src []byte) { t.WriteAtDirect(0, src) }

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
	t.ReadAllDirect(dst)
	return dst
}
