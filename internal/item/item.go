// Package item provides memcached's item representation and the per-slab-class
// LRU lists (memcached's items.c), written against the access.Ctx layer so the
// same code runs under locks and under every transactional branch.
//
// Concurrency domains follow memcached 1.4.15:
//
//   - hash-chain membership (HNext) and item payload are protected by the
//     item-lock domain (striped by key hash);
//   - LRU links (Prev/Next), link/unlink and eviction are protected by the
//     cache-lock domain;
//   - Refcount is a "volatile" (lock incr) counter, updated with atomic
//     read-modify-writes in lock-based branches and — after stage Max — with
//     transactional accesses;
//   - Exptime/Time are read against the volatile current_time clock.
package item

import (
	"repro/internal/access"
	"repro/internal/stm"
	"repro/internal/txobs"
)

// Observability labels: every shared word allocated here is tagged with the
// data structure it belongs to, so the conflict heat map (`stats conflicts`)
// can attribute aborts to "item header" vs "LRU head" instead of a bare orec
// index.
var (
	lblItemData     = txobs.RegisterLabel("item_data")
	lblItemHeader   = txobs.RegisterLabel("item_header")
	lblItemRefcount = txobs.RegisterLabel("item_refcount")
	lblHashChain    = txobs.RegisterLabel("hash_chain")
	lblLRULink      = txobs.RegisterLabel("lru_link")
	lblLRUHead      = txobs.RegisterLabel("lru_head")
)

// ItFlags bits (memcached's it_flags).
const (
	// FlagLinked marks an item present in the hash table and LRU.
	FlagLinked = 1 << iota
	// FlagSlabbed marks a chunk sitting in a slab freelist (not a live item).
	FlagSlabbed
)

// Item is one cache entry, laid out as two heap objects: this struct, whose
// transactional cells are embedded by value, and the word buffer behind buf,
// which holds key | suffix | data at word-aligned offsets. Every cell has its
// own location id (one block per item, in the order of idWords) and its
// per-field conflict label, so the barriers, orec mapping and `stats
// conflicts` attribution are those of separately allocated cells.
//
// The cells embed atomics, so an Item is never copied by value: it is created
// by New and passed around as *Item (go vet's copylocks check enforces it).
//
// Immutable fields (the key bytes, Hash, Class, Flags, CapBytes and the
// offsets) are written once before the item is published; everything else is
// shared state accessed through a Ctx.
type Item struct {
	Hash   uint64
	KeyLen int
	Class  int
	Flags  uint32

	// NBytes (mutable: incr/decr rewrite the value in place) is the live
	// value length, CapBytes the allocated capacity.
	NBytes   stm.TWord
	CapBytes int

	// SuffixLen is the length of the " <flags> <len>\r\n" header the
	// snprintf clone built at SuffixOff when the item was allocated (the libc
	// call on the set path).
	SuffixLen int

	Refcount stm.TWord // volatile / lock incr domain
	ItFlags  stm.TWord
	Exptime  stm.TWord
	Time     stm.TWord // last access (LRU aging)
	CasID    stm.TWord

	HNext      stm.TPtr[Item] // hash chain (item-lock domain)
	Prev, Next stm.TPtr[Item] // LRU links (cache-lock domain)

	buf stm.TBytes
}

const (
	// suffixCap is the room reserved for the suffix: " 4294967295 1048576\r\n"
	// — the widest flags and the largest value a slab page holds — is 21 bytes.
	suffixCap = 24
	// suffixCharge is what the accounting charges for it (see SizeFor).
	suffixCharge = 48
	// idWords is the number of single-word cells, in id order: NBytes,
	// Refcount, ItFlags, Exptime, Time, CasID, HNext, Prev, Next. The buffer's
	// words take the ids after them.
	idWords = 9
)

func align8(n int) int { return (n + 7) &^ 7 }

// New allocates an item for the given key with capacity for nbytes of value
// data. All stores are to captured (not yet published) memory, so they are
// direct, exactly as uninstrumented GCC stores to fresh allocations.
func New(key []byte, hash uint64, flags uint32, exptime uint64, nbytes int, class int) *Item {
	it := &Item{
		Hash:     hash,
		KeyLen:   len(key),
		Class:    class,
		Flags:    flags,
		CapBytes: nbytes,
	}
	size := it.DataOff() + nbytes
	id := stm.ReserveIDs(idWords + (size+7)/8)
	it.NBytes.Init(id, lblItemHeader, uint64(nbytes))
	it.Refcount.Init(id+1, lblItemRefcount, 0)
	it.ItFlags.Init(id+2, lblItemHeader, 0)
	it.Exptime.Init(id+3, lblItemHeader, exptime)
	it.Time.Init(id+4, lblItemHeader, 0)
	it.CasID.Init(id+5, lblItemHeader, 0)
	it.HNext.Init(id+6, lblHashChain, nil)
	it.Prev.Init(id+7, lblLRULink, nil)
	it.Next.Init(id+8, lblLRULink, nil)
	it.buf.Init(id+idWords, lblItemData, size)
	it.buf.WriteAllDirect(key)
	return it
}

// Buf returns the item's word buffer; KeyOff, SuffixOff and DataOff are the
// byte offsets of its three regions, the arguments the Ctx library calls take.
func (it *Item) Buf() *stm.TBytes { return &it.buf }

// KeyOff is the offset of the key in Buf.
func (it *Item) KeyOff() int { return 0 }

// SuffixOff is the offset of the suffix in Buf.
func (it *Item) SuffixOff() int { return align8(it.KeyLen) }

// DataOff is the offset of the value in Buf.
func (it *Item) DataOff() int { return align8(it.KeyLen) + suffixCap }

// SetDataDirect copies val into the value region of a captured item.
func (it *Item) SetDataDirect(val []byte) { it.buf.WriteAtDirect(it.DataOff(), val) }

// Linked reports whether the item is in the hash table/LRU.
func (it *Item) Linked(c access.Ctx) bool { return c.Word(&it.ItFlags)&FlagLinked != 0 }

// SetLinked sets or clears the linked flag.
func (it *Item) SetLinked(c access.Ctx, on bool) {
	f := c.Word(&it.ItFlags)
	if on {
		f |= FlagLinked
	} else {
		f &^= FlagLinked
	}
	c.SetWord(&it.ItFlags, f)
}

// RefIncr bumps the reference count (the lock incr path).
func (it *Item) RefIncr(c access.Ctx) uint64 { return c.AddVolatile(&it.Refcount, 1) }

// RefDecr drops the reference count and returns the new value.
func (it *Item) RefDecr(c access.Ctx) uint64 { return c.AddVolatile(&it.Refcount, ^uint64(0)) }

// RefGet reads the reference count.
func (it *Item) RefGet(c access.Ctx) uint64 { return c.Volatile(&it.Refcount) }

// Expired reports whether the item is past its expiry at time now.
func (it *Item) Expired(c access.Ctx, now uint64) bool {
	e := c.Word(&it.Exptime)
	return e != 0 && e <= now
}

// TotalBytes returns the item's accounted size (key + value + suffix + a
// fixed header charge), used for slab class selection and the bytes stat.
func (it *Item) TotalBytes(c access.Ctx) int {
	return SizeFor(it.KeyLen, int(c.Word(&it.NBytes)))
}

// headerSize approximates sizeof(item) in memcached's accounting.
const headerSize = 48

// SizeFor returns the accounted size for a prospective item. It is
// memcached's accounting (48 bytes of header, 48 of suffix), not the Go
// layout's: slab classes, evictions and the bytes stat follow it.
func SizeFor(keyLen, nbytes int) int { return keyLen + nbytes + suffixCharge + headerSize }

// ---------------------------------------------------------------------------
// LRU lists (cache-lock domain)

// LRU holds one doubly-linked list per slab class, most recently used first.
type LRU struct {
	heads []stm.TPtr[Item]
	tails []stm.TPtr[Item]
	sizes []stm.TWord
}

// NewLRU creates LRU lists for n slab classes.
func NewLRU(n int) *LRU {
	l := &LRU{
		heads: make([]stm.TPtr[Item], n),
		tails: make([]stm.TPtr[Item], n),
		sizes: make([]stm.TWord, n),
	}
	id := stm.ReserveIDs(3 * n)
	for i := range l.heads {
		l.heads[i].Init(id, lblLRUHead, nil)
		l.tails[i].Init(id+1, lblLRUHead, nil)
		l.sizes[i].Init(id+2, lblLRUHead, 0)
		id += 3
	}
	return l
}

// Classes returns the number of classes.
func (l *LRU) Classes() int { return len(l.heads) }

// Len returns the number of items in class cls.
func (l *LRU) Len(c access.Ctx, cls int) uint64 { return c.Word(&l.sizes[cls]) }

// Head returns the most recently used item of class cls, or nil.
func (l *LRU) Head(c access.Ctx, cls int) *Item { return access.Ptr(c, &l.heads[cls]) }

// Tail returns the least recently used item of class cls, or nil.
func (l *LRU) Tail(c access.Ctx, cls int) *Item { return access.Ptr(c, &l.tails[cls]) }

// Link inserts it at the head of its class list.
func (l *LRU) Link(c access.Ctx, it *Item) {
	cls := it.Class
	head := access.Ptr(c, &l.heads[cls])
	access.SetPtr(c, &it.Prev, nil)
	if head != nil {
		access.SetPtr(c, &it.Next, head)
		access.SetPtr(c, &head.Prev, it)
	} else {
		access.SetPtr(c, &it.Next, nil)
		access.SetPtr(c, &l.tails[cls], it)
	}
	access.SetPtr(c, &l.heads[cls], it)
	c.AddWord(&l.sizes[cls], 1)
}

// Unlink removes it from its class list.
func (l *LRU) Unlink(c access.Ctx, it *Item) {
	cls := it.Class
	prev := access.Ptr(c, &it.Prev)
	next := access.Ptr(c, &it.Next)
	if prev != nil {
		access.SetPtr(c, &prev.Next, next)
	} else {
		access.SetPtr(c, &l.heads[cls], next)
	}
	if next != nil {
		access.SetPtr(c, &next.Prev, prev)
	} else {
		access.SetPtr(c, &l.tails[cls], prev)
	}
	access.SetPtr(c, &it.Prev, nil)
	access.SetPtr(c, &it.Next, nil)
	c.AddWord(&l.sizes[cls], ^uint64(0))
}

// Touch moves it to the head of its class list (item_update).
func (l *LRU) Touch(c access.Ctx, it *Item, now uint64) {
	l.Unlink(c, it)
	l.Link(c, it)
	c.SetWord(&it.Time, now)
}
