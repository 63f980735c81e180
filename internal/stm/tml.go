package stm

// TML — Transactional Mutex Lock (Dalessandro, Dice, Scott, Shavit and
// Spear, "Transactional Mutex Locks", Euro-Par 2010; Spear is the paper's
// last author). The minimal STM: one global sequence lock.
//
//   - Readers snapshot an even sequence number at begin and re-check it on
//     every load; any change aborts them (no logs, no orecs, no validation
//     pass — the cheapest possible read barrier).
//   - The first write acquires the sequence lock by CAS to odd; the writer
//     then runs exclusive and writes in place. Commit releases at +2.
//
// TML is the degenerate point of the design space the paper's §4 explores:
// zero instrumentation metadata, perfect read scalability when writes are
// rare, and total serialization of writers. Comparing it against mlwt/
// lazy/norec on the memcached workload (BenchmarkTmdsListLookup, Figure 11
// harness via `-stm tml`) shows why GCC chose per-location orecs.
//
// The global sequence word reuses Runtime.nseq (NOrec's seqlock); the two
// algorithms never coexist in one runtime.

// tmlBegin samples an even sequence (reader mode).
func (tx *Tx) tmlBegin() {
	tx.start = tx.rt.norecBegin()
	tx.tmlWriter = false
}

// tmlLoad validates the snapshot after a direct read.
func (tx *Tx) tmlLoad(read func() uint64) uint64 {
	v := read()
	if !tx.tmlWriter && tx.rt.nseq.Load() != tx.start {
		tx.noteConflict("conflict: global sequence lock (read)", 0)
		panic(abortSignal{})
	}
	return v
}

// tmlAcquire upgrades to writer mode (first write).
func (tx *Tx) tmlAcquire() {
	if tx.tmlWriter {
		return
	}
	if !tx.rt.nseq.CompareAndSwap(tx.start, tx.start+1) {
		tx.noteConflict("conflict: global sequence lock (write)", 0)
		panic(abortSignal{})
	}
	tx.tmlWriter = true
}

// tmlCommit releases the sequence lock if held.
func (tx *Tx) tmlCommit() {
	if tx.tmlWriter {
		tx.rt.nseq.Store(tx.start + 2)
	}
}

// tmlRollback undoes in-place writes and releases the lock. The version
// still advances (+2): readers that overlapped the aborted writer must not
// be allowed to commit against its transient states.
func (tx *Tx) tmlRollback() {
	if !tx.tmlWriter {
		return
	}
	for i := len(tx.undoW) - 1; i >= 0; i-- {
		tx.undoW[i].p.Store(tx.undoW[i].v)
	}
	for i := len(tx.undoP) - 1; i >= 0; i-- {
		tx.undoP[i].c.storeRaw(tx.undoP[i].v)
	}
	tx.rt.nseq.Store(tx.start + 2)
	tx.tmlWriter = false
}
