// Quickstart: the Draft C++ TM Specification surface in five minutes.
//
// Shows the two transaction declarations (atomic and relaxed), a transaction
// expression, the in-flight switch to serial-irrevocable execution when a
// relaxed transaction performs I/O, and the statistics the paper's tables are
// built from.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"repro/internal/stm"
	"repro/internal/tm"
)

func main() {
	rt := stm.New(stm.Config{Algorithm: stm.MLWT, CM: stm.CMSerialize})
	th := rt.NewThread()

	// Shared state: two transactional words.
	checking := stm.NewTWord(100)
	savings := stm.NewTWord(100)

	// __transaction_atomic { ... }: statically (here: dynamically) checked to
	// contain no unsafe operations; never serializes.
	if err := tm.Atomic(th, tm.Options{}, func(tx *stm.Tx) {
		checking.Store(tx, checking.Load(tx)-30)
		savings.Store(tx, savings.Load(tx)+30)
	}); err != nil {
		panic(err)
	}

	// A transaction expression: evaluate a condition transactionally. The
	// ReadOnly hint lets it commit without acquiring anything.
	var total uint64
	_ = tm.Atomic(th, tm.Options{ReadOnly: true}, func(tx *stm.Tx) {
		total = checking.Load(tx) + savings.Load(tx)
	})
	fmt.Printf("after transfer: checking=%d savings=%d total=%d\n",
		checking.LoadDirect(), savings.LoadDirect(), total)

	// __transaction_relaxed { ... }: may perform unsafe operations (here,
	// printing). The runtime rolls back the speculation and restarts the body
	// serially and irrevocably — the "in-flight switch" of the paper.
	_ = tm.Relaxed(th, tm.Options{}, func(tx *stm.Tx) {
		balance := checking.Load(tx)
		if balance < 100 {
			tx.Unsafe("fprintf(stderr, ...)") // the I/O below cannot be undone
			fmt.Printf("  [logged from inside a serialized relaxed transaction: balance=%d]\n", balance)
		}
	})

	// The onCommit-handler alternative (§3.5): defer the I/O instead of
	// serializing, keeping the transaction atomic.
	_ = tm.Atomic(th, tm.Options{}, func(tx *stm.Tx) {
		balance := checking.Load(tx)
		tx.OnCommit(func() {
			fmt.Printf("  [logged from an onCommit handler: balance=%d]\n", balance)
		})
	})

	// Condition synchronization with Retry (the primitive §5 of the paper
	// says the specification must provide): a consumer blocks on exactly its
	// predicate, a producer wakes it by committing.
	ready := stm.NewTWord(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		consumer := rt.NewThread()
		_ = tm.Atomic(consumer, tm.Options{}, func(tx *stm.Tx) {
			if ready.Load(tx) == 0 {
				tx.Retry() // sleep until `ready` changes — no condvar, no lost wake-up
			}
			fmt.Printf("  [consumer woke: checking=%d]\n", checking.Load(tx))
		})
	}()
	time.Sleep(10 * time.Millisecond) // let the consumer block on its predicate
	_ = tm.Atomic(th, tm.Options{}, func(tx *stm.Tx) { ready.Store(tx, 1) })
	<-done

	// Serialization-cause profiling (§6 tooling).
	obs := rt.EnableTracing()
	_ = tm.Relaxed(th, tm.Options{}, func(tx *stm.Tx) { tx.Unsafe("perror") })
	fmt.Println("serialization causes:")
	for _, c := range obs.SerialCauses() {
		fmt.Printf("  %8d  %s\n", c.Count, c.Cause)
	}

	s := rt.Stats()
	fmt.Printf("transactions=%d aborts=%d in-flight-switches=%d start-serial=%d retries=%d\n",
		s.Commits, s.Aborts, s.InFlightSwitch, s.StartSerial, s.Retries)
}
