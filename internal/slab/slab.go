// Package slab is memcached's slab allocator (slabs.c): memory is accounted in
// 1 MiB pages assigned to size classes whose chunk sizes grow by a fixed
// factor, and each class keeps a freelist of chunks. A chunk is an item.Item —
// header plus a word buffer sized to its class — created once, the first time
// its class reaches that far into a page's budget, and from then on recycled:
// Alloc hands out a *item.Item, Release takes one back. Chunks are separate Go
// objects, not slices of a contiguous page (Go's allocator already packs
// equal-sized objects into spans, and a page move can then drop free chunks
// instead of evicting a page's residents), so a page is a budget of PerPage
// chunks. The package also carries the slabs_lock concurrency structure the
// paper has to transactionalize, including the slab-rebalance signal whose
// pthread trylock became a transactional boolean (§3.1).
//
// All shared state is accessed through an access.Ctx supplied by the caller,
// which must hold the slabs lock (lock branches) or be inside a transaction
// covering the slabs domain (transactional branches).
package slab

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/fault"
	"repro/internal/item"
	"repro/internal/stm"
	"repro/internal/txobs"
)

// lblSlabState covers allocator-global words (mem_allocated, the rebalance
// flag); each class's freelist words get a per-class label so the heat map
// can single out the contended size class.
var lblSlabState = txobs.RegisterLabel("slab_state")

// PageSize is the memcached slab page size (1 MiB).
const PageSize = 1 << 20

// DefaultGrowthFactor matches memcached's -f default of 1.25.
const DefaultGrowthFactor = 1.25

// MinChunkSize is the smallest chunk size (memcached: 48 + item header).
const MinChunkSize = 96

// Class is one slab class.
type Class struct {
	// ChunkSize and PerPage are immutable after initialization.
	ChunkSize int
	PerPage   int

	// Free is the length of the freelist; Fresh counts the chunks of the
	// class's pages that have not been created yet; Pages counts pages
	// assigned. Free+Fresh is what the class can hand out without growing.
	Free  *stm.TWord
	Fresh *stm.TWord
	Pages *stm.TWord

	// free heads the freelist, threaded through the chunks' LRU Next cells;
	// a chunk on it has item.FlagSlabbed set.
	free stm.TPtr[item.Item]
}

// Allocator is the slab allocator.
type Allocator struct {
	classes []Class

	// MemAllocated tracks bytes handed to classes; MemLimit bounds it.
	MemAllocated *stm.TWord
	MemLimit     uint64

	// Rebalance is the transactional boolean that replaced the
	// slab_rebalance pthread lock: set while a page move is in flight so
	// concurrent maintenance backs off (the trylock pattern, §3.1).
	Rebalance *stm.TWord

	// fault, when set, can force Alloc to report a full cache, driving the
	// caller onto the eviction path on demand (SlabAllocFail).
	fault *fault.Injector
}

// New builds an allocator with chunk sizes growing from MinChunkSize by
// factor until maxChunk, with the given total memory limit in bytes.
func New(memLimit uint64, factor float64, maxChunk int) *Allocator {
	if factor <= 1 {
		factor = DefaultGrowthFactor
	}
	if maxChunk <= 0 || maxChunk > PageSize {
		maxChunk = PageSize / 2
	}
	a := &Allocator{
		MemAllocated: stm.NewTWord(0).Label(lblSlabState),
		MemLimit:     memLimit,
		Rebalance:    stm.NewTWord(0).Label(lblSlabState),
	}
	var sizes []int
	for size := MinChunkSize; size < maxChunk; {
		sizes = append(sizes, size)
		next := int(float64(size) * factor)
		if next <= size {
			next = size + 8
		}
		size = (next + 7) &^ 7 // 8-byte alignment, as memcached does
	}
	sizes = append(sizes, maxChunk) // final class at maxChunk
	a.classes = make([]Class, len(sizes))
	for i, size := range sizes {
		lbl := txobs.RegisterLabelf("slab_class_%d", i)
		cl := &a.classes[i]
		cl.ChunkSize, cl.PerPage = size, PageSize/size
		cl.Free = stm.NewTWord(0).Label(lbl)
		cl.Fresh = stm.NewTWord(0).Label(lbl)
		cl.Pages = stm.NewTWord(0).Label(lbl)
		cl.free.Init(stm.ReserveIDs(1), lbl, nil)
	}
	return a
}

// SetFault installs a fault injector (nil disables injection). Call before
// the allocator is shared between goroutines.
func (a *Allocator) SetFault(in *fault.Injector) { a.fault = in }

// NumClasses returns the number of size classes.
func (a *Allocator) NumClasses() int { return len(a.classes) }

// ChunkSize returns the chunk size of class cls.
func (a *Allocator) ChunkSize(cls int) int { return a.classes[cls].ChunkSize }

// ClassFor returns the smallest class whose chunks fit size bytes, or an
// error if the object is too large for any class (SERVER_ERROR object too
// large for cache).
func (a *Allocator) ClassFor(size int) (int, error) {
	for i := range a.classes {
		if a.classes[i].ChunkSize >= size {
			return i, nil
		}
	}
	return 0, fmt.Errorf("slab: object of %d bytes too large for cache", size)
}

// Alloc takes one chunk of class cls: off the freelist, else the next one of
// the class's page budget (created here), growing the class by a page if
// memory remains. It returns nil when the cache is full and the caller must
// evict (slabs_alloc returning NULL). The chunk comes with flags clear and
// links nil; the caller owns it until it links or releases it.
func (a *Allocator) Alloc(c access.Ctx, cls int) *item.Item {
	it, _ := a.alloc(c, cls)
	return it
}

// AllocNew is Alloc for a caller inside a transaction it does not end, which
// has no grace period to wait out before it fills the chunk: the chunk is one
// no other transaction has ever seen. A freelist chunk is dropped for it, as a
// page move drops them, so the class's count does not change.
func (a *Allocator) AllocNew(c access.Ctx, cls int) *item.Item {
	it, recycled := a.alloc(c, cls)
	if recycled {
		it = item.NewChunk(cls, a.classes[cls].ChunkSize)
	}
	return it
}

func (a *Allocator) alloc(c access.Ctx, cls int) (it *item.Item, recycled bool) {
	if a.fault.Fire(fault.SlabAllocFail) {
		return nil, false
	}
	cl := &a.classes[cls]
	if it := access.Ptr(c, &cl.free); it != nil {
		access.SetPtr(c, &cl.free, access.Ptr(c, &it.Next))
		c.AddWord(cl.Free, ^uint64(0))
		c.SetWord(&it.ItFlags, 0)
		access.SetPtr(c, &it.Next, nil)
		return it, true
	}
	fresh := c.Word(cl.Fresh)
	if fresh == 0 {
		if c.Word(a.MemAllocated)+PageSize > a.MemLimit {
			return nil, false
		}
		c.AddWord(a.MemAllocated, PageSize)
		c.AddWord(cl.Pages, 1)
		fresh = uint64(cl.PerPage)
	}
	c.SetWord(cl.Fresh, fresh-1)
	return item.NewChunk(cls, cl.ChunkSize), false
}

// Release returns a chunk — unlinked and no longer referenced — to its
// class's freelist (slabs_free).
func (a *Allocator) Release(c access.Ctx, it *item.Item) {
	cl := &a.classes[it.Class]
	c.SetWord(&it.ItFlags, item.FlagSlabbed)
	access.SetPtr(c, &it.Next, access.Ptr(c, &cl.free))
	access.SetPtr(c, &cl.free, it)
	c.AddWord(cl.Free, 1)
}

// FreeChunks returns how many chunks class cls can hand out without growing:
// its freelist plus the part of its pages not yet created.
func (a *Allocator) FreeChunks(c access.Ctx, cls int) uint64 {
	cl := &a.classes[cls]
	return c.Word(cl.Free) + c.Word(cl.Fresh)
}

// FreeList returns the head of class cls's freelist and its recorded length;
// the chunks follow through their Next cells (the structural validator's
// walk).
func (a *Allocator) FreeList(c access.Ctx, cls int) (head *item.Item, n uint64) {
	cl := &a.classes[cls]
	return access.Ptr(c, &cl.free), c.Word(cl.Free)
}

// Created returns the number of chunks of class cls in existence: its pages'
// budget less the part not created yet.
func (a *Allocator) Created(c access.Ctx, cls int) uint64 {
	cl := &a.classes[cls]
	return c.Word(cl.Pages)*uint64(cl.PerPage) - c.Word(cl.Fresh)
}

// PagesOf returns the number of pages assigned to class cls.
func (a *Allocator) PagesOf(c access.Ctx, cls int) uint64 {
	return c.Word(a.classes[cls].Pages)
}

// Allocated returns the bytes currently assigned to classes.
func (a *Allocator) Allocated(c access.Ctx) uint64 { return c.Word(a.MemAllocated) }

// TryStartRebalance attempts to claim the rebalance flag — the transactional
// replacement for pthread_mutex_trylock(slab_rebalance_lock). The caller must
// be inside the slabs concurrency domain.
func (a *Allocator) TryStartRebalance(c access.Ctx) bool {
	if c.Word(a.Rebalance) != 0 {
		return false
	}
	c.SetWord(a.Rebalance, 1)
	return true
}

// EndRebalance clears the rebalance flag.
func (a *Allocator) EndRebalance(c access.Ctx) { c.SetWord(a.Rebalance, 0) }

// RebalanceInFlight reports whether a page move is in progress.
func (a *Allocator) RebalanceInFlight(c access.Ctx) bool { return c.Word(a.Rebalance) != 0 }

// PickMove selects a donor and recipient class for the rebalancer: the donor
// has the most fully-free pages, the recipient has no free chunks. It returns
// ok=false when no useful move exists.
func (a *Allocator) PickMove(c access.Ctx) (donor, recipient int, ok bool) {
	donor, recipient = -1, -1
	var bestFreePages uint64
	for i := range a.classes {
		cl := &a.classes[i]
		free := a.FreeChunks(c, i)
		freePages := free / uint64(cl.PerPage)
		if c.Word(cl.Pages) > 1 && freePages > bestFreePages {
			bestFreePages = freePages
			donor = i
		}
		if recipient == -1 && c.Word(cl.Pages) > 0 && free == 0 {
			recipient = i
		}
	}
	if donor == -1 || recipient == -1 || donor == recipient || bestFreePages == 0 {
		return 0, 0, false
	}
	return donor, recipient, true
}

// MovePage transfers one page's worth of free chunks from donor to recipient
// (slab_rebalance_move): the donor gives up PerPage chunks — the part of its
// budget not created yet first, the rest popped off its freelist and dropped
// for the garbage collector — and the recipient gains a page to create its own
// chunks from. The caller must have claimed the rebalance flag.
func (a *Allocator) MovePage(c access.Ctx, donor, recipient int) bool {
	d, r := &a.classes[donor], &a.classes[recipient]
	fresh, per := c.Word(d.Fresh), uint64(d.PerPage)
	if fresh+c.Word(d.Free) < per || c.Word(d.Pages) == 0 {
		return false
	}
	uncreated := min(fresh, per)
	c.SetWord(d.Fresh, fresh-uncreated)
	if drop := per - uncreated; drop > 0 {
		head := access.Ptr(c, &d.free)
		for n := drop; n > 0; n-- {
			head = access.Ptr(c, &head.Next)
		}
		access.SetPtr(c, &d.free, head)
		c.AddWord(d.Free, -drop)
	}
	c.AddWord(d.Pages, ^uint64(0))
	c.AddWord(r.Pages, 1)
	c.AddWord(r.Fresh, uint64(r.PerPage))
	return true
}
