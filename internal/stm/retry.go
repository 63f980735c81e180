package stm

import (
	"runtime"
	"time"
)

// Condition synchronization.
//
// §5 of the paper: "The Specification Must Address Condition Synchronization
// ... Given the widespread use of condition variables in real-world programs,
// it is essential that the specification provide a solution. Otherwise, TM
// adoption will remain limited." The paper lists candidate mechanisms; this
// file implements the first one it cites — the `retry` of composable memory
// transactions (Harris et al., PPoPP 2005, the paper's [12]) — so the
// repository can demonstrate what the Draft specification was missing.
//
// Tx.Retry aborts the transaction and blocks the thread until some location
// in the transaction's read set is modified by another commit, then re-runs
// the body. Because the wait predicate is exactly the read set, the classic
// condvar pitfalls (lost wake-ups, spurious predicates, signaling protocol)
// disappear: the Figure 2 maintenance-thread pattern becomes
//
//	th.Run(props, func(tx *stm.Tx) {
//	    if !workAvailable(tx) {
//	        tx.Retry()
//	    }
//	    takeWork(tx)
//	})
//
// with no semaphore, no mx_running flag, and no manual transformation.

// retrySignal is thrown by Tx.Retry and handled by the run loop.
type retrySignal struct{}

// Retry aborts the transaction and blocks until another transaction commits a
// change to something this attempt read, then re-executes the body. The read
// set must be non-empty (otherwise nothing could ever wake the transaction).
// In serial-irrevocable mode the wait degrades to yield-and-re-run, since an
// irrevocable transaction has no tracked read set.
func (tx *Tx) Retry() {
	if !tx.serial &&
		len(tx.reads) == 0 && len(tx.nReadsW) == 0 && len(tx.nReadsP) == 0 {
		panic("stm: Retry with an empty read set would never wake")
	}
	// A serial-irrevocable commit stores in place without touching an orec or
	// the NOrec sequence, so the read-set watch below cannot see it; the
	// serial lock's acquisition count can. Record the count this attempt's
	// reads are known to be current for: the one a read-only attempt
	// subscribed to, or — for an attempt holding the read side, which
	// excludes serial writers — the one right now.
	if tx.ro {
		tx.retrySeq = tx.roSeq
	} else {
		tx.retrySeq = tx.rt.serial.seq.Load()
	}
	panic(retrySignal{})
}

// waitReadSetChange blocks until the rolled-back attempt's read set is dirty
// or a serial-irrevocable transaction has run (which may have dirtied it
// invisibly). Called between rollback and the next begin; the attempt's logs
// are still intact. Wake-ups may be spurious (an orec rollback restores its version, a
// colliding location shares the orec): the re-run then simply retries again,
// which is correct, only wasteful.
func (tx *Tx) waitReadSetChange() {
	if tx.serial {
		runtime.Gosched()
		return
	}
	spins := 0
	for tx.rt.serial.seq.Load() == tx.retrySeq {
		switch tx.algo {
		case NOrec:
			for _, r := range tx.nReadsW {
				if r.p.Load() != r.v {
					return
				}
			}
			for _, r := range tx.nReadsP {
				if r.c.loadRaw() != r.v {
					return
				}
			}
		default: // orec-based: MLWT, Lazy
			for _, r := range tx.reads {
				if r.o.v.Load() != r.ver {
					return
				}
			}
		}
		spins++
		switch {
		case spins < 64:
			runtime.Gosched()
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
}
