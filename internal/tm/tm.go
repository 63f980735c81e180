// Package tm is the single transaction entry point for this repository.
//
// Historically every layer grew its own run helper: core.Ctx.Atomic,
// core.Ctx.Relaxed, core.Ctx.RelaxedStartSerial, and raw stm.Thread.Run calls
// with hand-built Props scattered through engine and the tests. This
// package replaces them with two functions and a plain options struct:
//
//	err := tm.Atomic(th, tm.Options{Site: "item_get", ReadOnly: true}, func(tx *stm.Tx) { ... })
//	err := tm.Relaxed(th, tm.Options{}, func(tx *stm.Tx) { ... })
//
// Options are plain data, so hot call sites build them once (or use the zero
// value) and allocate nothing per call. The old core.Ctx wrappers have been
// deleted; this package is the one blessed transaction API.
package tm

import (
	"repro/internal/stm"
)

// Options is the option set for one transaction run. The zero value
// is a plain speculative transaction with no label.
type Options struct {
	// ReadOnly declares the body is not expected to write; orec-based
	// algorithms then attempt the read-only fast-path commit (zero orec
	// acquisitions, zero serial-lock traffic) and upgrade cleanly on the
	// first write barrier. A hint, never a contract.
	ReadOnly bool
	// StartSerial makes a relaxed transaction begin serial-irrevocable
	// instead of paying for instrumented execution up to the switch point.
	// Meaningless (and rejected by the runtime) for atomic transactions.
	StartSerial bool
	// Site labels the source-level transaction for conflict attribution and
	// serialization-cause profiling.
	Site string
}

func (o Options) props(kind stm.Kind) stm.Props {
	return stm.Props{
		Kind:        kind,
		StartSerial: o.StartSerial,
		Site:        o.Site,
		ReadOnly:    o.ReadOnly,
	}
}

// Atomic runs fn as an atomic transaction on th: unsafe operations are
// forbidden (they panic with stm.ErrUnsafeInAtomic) and the transaction never
// serializes except for contention-management progress. Returns nil on
// commit, stm.ErrCanceled if fn canceled. Nested calls flatten into the
// enclosing transaction, as in GCC.
func Atomic(th *stm.Thread, o Options, fn func(*stm.Tx)) error {
	return th.Run(o.props(stm.Atomic), fn)
}

// Relaxed runs fn as a relaxed transaction on th: unsafe operations trigger
// the in-flight switch to serial-irrevocable execution. Return values are as
// for Atomic.
func Relaxed(th *stm.Thread, o Options, fn func(*stm.Tx)) error {
	return th.Run(o.props(stm.Relaxed), fn)
}

// LoadWord reads w in a mini atomic transaction (flattening into the current
// one if th is already inside a transaction).
func LoadWord(th *stm.Thread, w *stm.TWord) uint64 {
	var v uint64
	_ = Atomic(th, Options{ReadOnly: true}, func(tx *stm.Tx) { v = w.Load(tx) })
	return v
}

// StoreWord writes w in a mini atomic transaction.
func StoreWord(th *stm.Thread, w *stm.TWord, v uint64) {
	_ = Atomic(th, Options{}, func(tx *stm.Tx) { w.Store(tx, v) })
}

// AddWord adds delta to w in a mini atomic transaction and returns the new
// value.
func AddWord(th *stm.Thread, w *stm.TWord, delta uint64) uint64 {
	var v uint64
	_ = Atomic(th, Options{}, func(tx *stm.Tx) { v = w.Add(tx, delta) })
	return v
}
