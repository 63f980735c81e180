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

// Item is one slab chunk: two heap objects made once by NewChunk and reused
// for every cache entry the chunk ever holds. This struct carries the header,
// its transactional cells embedded by value; the word buffer behind buf, sized
// to the chunk's class, holds key | suffix | data at word-aligned offsets.
// Every cell has its own location id (one block per chunk, in the order of
// idWords) and its per-field conflict label, so the barriers, orec mapping and
// `stats conflicts` attribution are those of separately allocated cells.
//
// The cells embed atomics, so an Item is never copied by value: it is passed
// around as *Item (go vet's copylocks check enforces it).
//
// A chunk is in exactly one place: linked (hash chain and LRU), held by the
// worker that allocated it, or on its class's freelist with FlagSlabbed set.
// Class never changes. Hash, KeyLen, Flags, CapBytes and SuffixLen are plain
// fields with no barrier to cover them, so Fill writes them only while the
// chunk is unreachable and no transaction that could still hold its pointer
// is running; everything else is shared state accessed through a Ctx.
type Item struct {
	Hash   uint64
	KeyLen int
	Class  int
	Flags  uint32

	// NBytes (mutable: incr/decr rewrite the value in place) is the live
	// value length, CapBytes the length it was allocated for.
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
	Prev, Next stm.TPtr[Item] // LRU links (cache-lock domain); Next threads the slab freelist

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

// NewChunk creates the chunk of a slab class whose accounted chunk size is
// chunkSize, with its location ids reserved once for the full buffer. The
// buffer holds any key and value SizeFor admits to the class: of the
// accounted header and suffix charge only the suffix region is real, and
// aligning the key costs at most 7 bytes. It comes off no freelist: flags
// clear, links nil.
func NewChunk(class, chunkSize int) *Item {
	it := &Item{Class: class}
	size := chunkSize - headerSize - suffixCharge + suffixCap + 8
	id := stm.ReserveIDs(idWords + size/8)
	it.NBytes.Init(id, lblItemHeader, 0)
	it.Refcount.Init(id+1, lblItemRefcount, 0)
	it.ItFlags.Init(id+2, lblItemHeader, 0)
	it.Exptime.Init(id+3, lblItemHeader, 0)
	it.Time.Init(id+4, lblItemHeader, 0)
	it.CasID.Init(id+5, lblItemHeader, 0)
	it.HNext.Init(id+6, lblHashChain, nil)
	it.Prev.Init(id+7, lblLRULink, nil)
	it.Next.Init(id+8, lblLRULink, nil)
	it.buf.Init(id+idWords, lblItemData, size)
	return it
}

// Reset is the shared-state half of do_item_alloc, run inside the allocating
// critical section on a chunk just taken from its class: the header cells of
// a new entry — one reference, the creator's — and the snprintf'd suffix,
// every store through c, because until that section commits the chunk may be
// one it evicted and transactions that began earlier still read. It returns
// the suffix length for Fill. Flags and links are already clear — a chunk
// leaves the hash chain, the LRU and the freelist with them reset — and the
// CAS id stays the previous entry's until linking issues a new one: an id
// that still matches nothing linked is what tells a stale pointer apart.
func (it *Item) Reset(c access.Ctx, keyLen int, flags uint32, exptime uint64, nbytes int, now uint64) int {
	c.SetWord(&it.NBytes, uint64(nbytes))
	c.SetVolatile(&it.Refcount, 1)
	c.SetWord(&it.Exptime, exptime)
	c.SetWord(&it.Time, now)
	return c.FormatSuffix(&it.buf, align8(keyLen), flags, nbytes)
}

// Fill completes the entry Reset began: the plain fields, the key and the
// value. The caller owns the chunk privately (see the type comment: nothing
// covers the plain fields) — the section that took it has committed and its
// grace period has passed, or the chunk is a new one — so c is its direct
// context.
func (it *Item) Fill(c access.Ctx, key []byte, hash uint64, flags uint32, suffixLen int, val []byte) {
	it.Hash = hash
	it.KeyLen = len(key)
	it.Flags = flags
	it.CapBytes = len(val)
	it.SuffixLen = suffixLen
	c.MemcpyIn(&it.buf, it.KeyOff(), key)
	c.MemcpyIn(&it.buf, it.DataOff(), val)
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
