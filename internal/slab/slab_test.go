package slab

import (
	"testing"

	"repro/internal/access"
	"repro/internal/item"
	"repro/internal/stm"
)

var dc = access.DirectCtx{}

func TestClassSizesGrow(t *testing.T) {
	a := New(64<<20, 1.25, 8192)
	if a.NumClasses() < 10 {
		t.Fatalf("NumClasses = %d, want a real ladder", a.NumClasses())
	}
	prev := 0
	for i := 0; i < a.NumClasses(); i++ {
		cs := a.ChunkSize(i)
		if cs <= prev {
			t.Errorf("class %d size %d not increasing", i, cs)
		}
		if cs%8 != 0 {
			t.Errorf("class %d size %d not 8-aligned", i, cs)
		}
		prev = cs
	}
}

func TestClassFor(t *testing.T) {
	a := New(64<<20, 1.25, 8192)
	cls, err := a.ClassFor(100)
	if err != nil {
		t.Fatal(err)
	}
	if a.ChunkSize(cls) < 100 {
		t.Errorf("chunk %d too small", a.ChunkSize(cls))
	}
	if cls > 0 && a.ChunkSize(cls-1) >= 100 {
		t.Errorf("not the smallest fitting class")
	}
	if _, err := a.ClassFor(1 << 30); err == nil {
		t.Error("huge object accepted")
	}
}

// contexts runs fn once with direct accesses and once inside a transaction per
// call of the ctx-taking closure, so every allocator operation is exercised on
// real chunks under both regimes.
func contexts(t *testing.T, fn func(t *testing.T, in func(func(access.Ctx)))) {
	t.Run("direct", func(t *testing.T) {
		fn(t, func(body func(access.Ctx)) { body(dc) })
	})
	t.Run("tx", func(t *testing.T) {
		th := stm.New(stm.Config{}).NewThread()
		txc := &access.TxCtx{Profile: access.Profile{TxVolatiles: true, SafeLibc: true}}
		fn(t, func(body func(access.Ctx)) {
			if err := th.Run(stm.Props{Kind: stm.Atomic}, func(tx *stm.Tx) {
				txc.T = tx
				body(txc)
			}); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// freeList walks class cls's freelist, checking each chunk's state.
func freeList(t *testing.T, a *Allocator, cls int) []*item.Item {
	t.Helper()
	head, n := a.FreeList(dc, cls)
	var out []*item.Item
	for it := head; it != nil; it = it.Next.LoadDirect() {
		if it.Class != cls || it.ItFlags.LoadDirect() != item.FlagSlabbed {
			t.Fatalf("freelist chunk: class %d flags %#x, want class %d and FlagSlabbed", it.Class, it.ItFlags.LoadDirect(), cls)
		}
		out = append(out, it)
	}
	if uint64(len(out)) != n {
		t.Fatalf("freelist holds %d chunks, Free says %d", len(out), n)
	}
	return out
}

func TestAllocCreatesChunksOneAtATime(t *testing.T) {
	contexts(t, func(t *testing.T, in func(func(access.Ctx))) {
		a := New(4<<20, 1.25, 8192)
		cls, _ := a.ClassFor(1000)
		per := uint64(PageSize / a.ChunkSize(cls))
		var first, second *item.Item
		in(func(c access.Ctx) { first = a.Alloc(c, cls) })
		if first == nil || first.Class != cls || first.Buf().Len() < 1000-96 {
			t.Fatalf("first Alloc = %+v", first)
		}
		if got := a.FreeChunks(dc, cls); got != per-1 {
			t.Errorf("free after first alloc = %d, want %d", got, per-1)
		}
		if got := a.Created(dc, cls); got != 1 {
			t.Errorf("chunks created = %d, want 1: a page is a budget, not %d allocations", got, per)
		}
		if a.PagesOf(dc, cls) != 1 || a.Allocated(dc) != PageSize {
			t.Errorf("pages = %d, allocated = %d", a.PagesOf(dc, cls), a.Allocated(dc))
		}
		in(func(c access.Ctx) { second = a.Alloc(c, cls) })
		if second == nil || second == first {
			t.Fatalf("second Alloc = %p, first = %p", second, first)
		}
		if len(freeList(t, a, cls)) != 0 {
			t.Error("a class that only ever grew has a freelist")
		}
	})
}

func TestReleaseThenAllocRecycles(t *testing.T) {
	contexts(t, func(t *testing.T, in func(func(access.Ctx))) {
		a := New(4<<20, 1.25, 8192)
		cls, _ := a.ClassFor(500)
		var x, y *item.Item
		in(func(c access.Ctx) { x, y = a.Alloc(c, cls), a.Alloc(c, cls) })
		in(func(c access.Ctx) { a.Release(c, x); a.Release(c, y) })
		if fl := freeList(t, a, cls); len(fl) != 2 || fl[0] != y || fl[1] != x {
			t.Fatalf("freelist after two releases = %v, want [y x]", fl)
		}
		created := a.Created(dc, cls)
		var again *item.Item
		in(func(c access.Ctx) { again = a.Alloc(c, cls) })
		if again != y {
			t.Errorf("Alloc after Release returned %p, want the chunk released last (%p)", again, y)
		}
		if again.ItFlags.LoadDirect() != 0 || again.Next.LoadDirect() != nil {
			t.Errorf("recycled chunk came off the freelist with flags %#x, next %p", again.ItFlags.LoadDirect(), again.Next.LoadDirect())
		}
		if a.Created(dc, cls) != created {
			t.Errorf("recycling created a chunk: %d -> %d", created, a.Created(dc, cls))
		}
		if fl := freeList(t, a, cls); len(fl) != 1 || fl[0] != x {
			t.Errorf("freelist = %v, want [x]", fl)
		}
	})
}

// TestAllocNewNeverRecycles: AllocNew takes a freelist chunk's place in the
// class's count but hands out one nobody has seen, and grows into a page
// exactly as Alloc does.
func TestAllocNewNeverRecycles(t *testing.T) {
	contexts(t, func(t *testing.T, in func(func(access.Ctx))) {
		a := New(4<<20, 1.25, 8192)
		cls, _ := a.ClassFor(500)
		var x, got *item.Item
		in(func(c access.Ctx) { x = a.AllocNew(c, cls) })
		if x == nil || a.Created(dc, cls) != 1 {
			t.Fatalf("AllocNew on an empty class = %p, %d chunks created, want one", x, a.Created(dc, cls))
		}
		in(func(c access.Ctx) { a.Release(c, x) })
		in(func(c access.Ctx) { got = a.AllocNew(c, cls) })
		if got == nil || got == x {
			t.Errorf("AllocNew = %p with %p on the freelist, want a new chunk", got, x)
		}
		if len(freeList(t, a, cls)) != 0 || a.Created(dc, cls) != 1 {
			t.Errorf("after AllocNew: %d on the freelist, %d created, want 0 and 1", len(freeList(t, a, cls)), a.Created(dc, cls))
		}
	})
}

// TestAbortedAllocLeavesNoTrace: an allocation inside a transaction that then
// aborts must leave the freelist, the counters and the popped chunk as they
// were.
func TestAbortedAllocLeavesNoTrace(t *testing.T) {
	th := stm.New(stm.Config{}).NewThread()
	a := New(4<<20, 1.25, 8192)
	cls, _ := a.ClassFor(500)
	x := a.Alloc(dc, cls)
	a.Release(dc, x)
	attempts := 0
	if err := th.Run(stm.Props{Kind: stm.Atomic}, func(tx *stm.Tx) {
		attempts++
		if attempts > 1 {
			return
		}
		ctx := access.TxCtx{T: tx}
		if a.Alloc(ctx, cls) != x || a.Alloc(ctx, cls) == nil {
			t.Error("Alloc in tx did not pop, then create")
		}
		tx.Abort()
	}); err != nil {
		t.Fatal(err)
	}
	if fl := freeList(t, a, cls); len(fl) != 1 || fl[0] != x {
		t.Errorf("freelist after abort = %v, want [x]", fl)
	}
	if a.Created(dc, cls) != 1 {
		t.Errorf("created = %d after an aborted grow, want 1", a.Created(dc, cls))
	}
}

func TestAllocExhaustsAtLimit(t *testing.T) {
	a := New(2<<20, 1.25, 8192) // two pages
	cls, _ := a.ClassFor(100000)
	per := PageSize / a.ChunkSize(cls)
	var last *item.Item
	total := 0
	for it := a.Alloc(dc, cls); it != nil; it = a.Alloc(dc, cls) {
		last = it
		total++
		if total > 3*per {
			t.Fatal("allocator never exhausted")
		}
	}
	if total != 2*per {
		t.Errorf("allocated %d chunks, want %d", total, 2*per)
	}
	// Release returns capacity.
	a.Release(dc, last)
	if a.Alloc(dc, cls) != last {
		t.Error("Alloc after Release did not return the released chunk")
	}
}

func TestRebalanceFlag(t *testing.T) {
	a := New(4<<20, 1.25, 8192)
	if !a.TryStartRebalance(dc) {
		t.Fatal("flag initially claimed")
	}
	if a.TryStartRebalance(dc) {
		t.Error("second claim succeeded — trylock semantics broken")
	}
	if !a.RebalanceInFlight(dc) {
		t.Error("in-flight not visible")
	}
	a.EndRebalance(dc)
	if !a.TryStartRebalance(dc) {
		t.Error("claim after release failed")
	}
}

func TestPickAndMovePage(t *testing.T) {
	contexts(t, func(t *testing.T, in func(func(access.Ctx))) {
		a := New(8<<20, 2.0, 8192)
		donor, _ := a.ClassFor(1000)
		recipient, _ := a.ClassFor(8000)
		if donor == recipient {
			t.Fatal("test needs distinct classes")
		}
		// Donor: two pages, every chunk created and back on the freelist but
		// for half a page never created. Recipient: one page, all handed out.
		per := PageSize / a.ChunkSize(donor)
		var held []*item.Item
		in(func(c access.Ctx) {
			held = held[:0]
			for i := 0; i < per+per/2; i++ {
				held = append(held, a.Alloc(c, donor))
			}
		})
		in(func(c access.Ctx) {
			for _, it := range held {
				a.Release(c, it)
			}
		})
		in(func(c access.Ctx) {
			for i := 0; i < PageSize/a.ChunkSize(recipient); i++ {
				if a.Alloc(c, recipient) == nil {
					t.Fatal("alloc recipient")
				}
			}
		})

		var d, r int
		var ok, moved bool
		in(func(c access.Ctx) { d, r, ok = a.PickMove(c) })
		if !ok || d != donor || r != recipient {
			t.Fatalf("PickMove = (%d,%d,%v), want (%d,%d,true)", d, r, ok, donor, recipient)
		}
		in(func(c access.Ctx) { moved = a.MovePage(c, d, r) })
		if !moved {
			t.Fatal("MovePage failed")
		}
		if a.PagesOf(dc, recipient) != 2 || a.PagesOf(dc, donor) != 1 {
			t.Errorf("pages after move: recipient %d, donor %d", a.PagesOf(dc, recipient), a.PagesOf(dc, donor))
		}
		if got := a.FreeChunks(dc, recipient); got != uint64(PageSize/a.ChunkSize(recipient)) {
			t.Errorf("recipient free = %d", got)
		}
		// The move took the donor's uncreated half page first and dropped
		// half a page of real chunks: one page of them is left, all free.
		if fl := freeList(t, a, donor); len(fl) != per {
			t.Errorf("donor freelist = %d chunks, want %d", len(fl), per)
		}
		if a.Created(dc, donor) != uint64(per) || a.FreeChunks(dc, donor) != uint64(per) {
			t.Errorf("donor created %d, free %d, want %d and %d", a.Created(dc, donor), a.FreeChunks(dc, donor), per, per)
		}
		// The recipient's new page is a budget: nothing created until asked.
		if a.Created(dc, recipient) != uint64(PageSize/a.ChunkSize(recipient)) {
			t.Errorf("recipient created = %d", a.Created(dc, recipient))
		}
	})
}

func TestMovePageRefusesPartialPages(t *testing.T) {
	a := New(8<<20, 2.0, 8192)
	cls, _ := a.ClassFor(1000)
	a.Alloc(dc, cls) // one chunk in use: page not fully free
	if a.MovePage(dc, cls, cls+1) {
		t.Error("moved a partially-used page")
	}
}

func TestDefaultFactorAndBounds(t *testing.T) {
	a := New(1<<20, 0, 0) // defaults
	if a.NumClasses() == 0 {
		t.Fatal("no classes")
	}
	last := a.ChunkSize(a.NumClasses() - 1)
	if last > PageSize/2 {
		t.Errorf("largest chunk %d exceeds default max", last)
	}
}
