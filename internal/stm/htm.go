package stm

import "runtime"

// Hardware-TM emulation.
//
// §5 of the paper observes that "the latest version of GCC requires every
// hardware transaction to use this lock, suggesting that hardware TM will not
// achieve its full potential as long as serialized transactions are the
// common case." To let the repository exercise that claim, the HTM algorithm
// emulates best-effort hardware transactions the way GCC's RTM path uses
// them:
//
//   - speculation is free of per-access bookkeeping costs in real hardware;
//     here it reuses the orec machinery for conflict detection but imposes a
//     CAPACITY limit (HTMCapacity locations) — exceeding it is a capacity
//     abort, the defining limitation of real HTM;
//   - a hardware transaction does not acquire the serial lock; it SUBSCRIBES
//     to it: the lock's acquisition sequence number is read at begin and
//     re-checked at commit, so any serialized transaction in between aborts
//     the hardware transaction (the cache-line invalidation of the lock word
//     in real RTM);
//   - after HTMRetries consecutive aborts the transaction falls back to the
//     global lock (lock elision's fallback path) — which is exactly why
//     frequent serialization destroys HTM throughput.
//
// Statistics: capacity aborts and fallbacks are counted separately so the
// §5 claim can be measured (BenchmarkAblationHTMSerialization).

const (
	defaultHTMCapacity = 64
	defaultHTMRetries  = 3
)

// htmCapacitySignal aborts a hardware transaction whose footprint exceeded
// the capacity.
type htmCapacitySignal struct{}

// htmFootprint returns the transaction's current location footprint.
func (tx *Tx) htmFootprint() int {
	return len(tx.reads) + len(tx.owned) + len(tx.undoW) + len(tx.undoP)
}

// htmCheckCapacity aborts with a capacity signal when the footprint exceeds
// the configured limit.
func (tx *Tx) htmCheckCapacity() {
	if tx.htmFootprint() > tx.rt.cfg.HTMCapacity {
		tx.rt.stats.HTMCapacityAborts.Add(1)
		tx.noteConflict("htm capacity overflow", 0)
		panic(htmCapacitySignal{})
	}
}

// htmMarkEager publishes the thread's eagerSub mark before the attempt's
// first eager write, then re-validates the serial-lock subscription. The
// ordering closes the rollback-vs-serial-writer race: if the re-check passes,
// the mark was visible before any serial acquisition, so that writer's
// drainEagerSubscribed waits for this attempt's undo restore; if it fails,
// nothing has been written yet and the attempt aborts holding no in-place
// state. Publishing at the first write rather than at begin means a hardware
// attempt that has only read — which real RTM would abort asynchronously, but
// the emulation cannot — never stalls a serial writer.
func (tx *Tx) htmMarkEager() {
	th := tx.th
	if th.eagerSub.Load() {
		return
	}
	th.eagerSub.Store(true)
	if !tx.rt.serial.stillSubscribed(tx.htmSeq) {
		th.eagerSub.Store(false)
		tx.noteConflict("conflict: serial-lock subscription", 0)
		panic(abortSignal{})
	}
}

// drainEagerSubscribed waits, with the serial write lock held, for in-flight
// emulated-hardware attempts that have performed eager writes to retire.
// They subscribe instead of taking the read side, so Lock() does not drain
// them — yet they write eagerly in place, and their rollback (undo-log
// restore) racing this serial writer's uninstrumented stores would clobber
// committed data. Real RTM aborts the hardware transaction the moment the
// lock's cache line is invalidated; the emulation gets the same guarantee by
// waiting here. Only attempts holding dirty in-place state are waited for:
// eagerSub is published at the first eager write (htmMarkEager), not at
// begin, so a hardware attempt that has merely read — and may be parked in
// its body — cannot stall the serial writer. The waited-for attempts are
// doomed (the acquisition broke their subscription) and already past their
// last subscription check, so the wait is bounded by their rollback.
func (rt *Runtime) drainEagerSubscribed() {
	snapP := rt.thSnap.Load()
	if snapP == nil {
		return
	}
	for _, th := range *snapP {
		spins := 0
		for th.eagerSub.Load() {
			spins++
			if spins > 32 {
				runtime.Gosched()
			}
		}
	}
}
