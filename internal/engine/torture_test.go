package engine_test

import (
	"flag"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/torture"
)

// tortureShort shrinks the torture runs for quick -race smoke passes:
//
//	go test -race -run Torture -torture.short ./internal/engine
var tortureShort = flag.Bool("torture.short", false, "run shrunken torture schedules")

// tortureSeeds: three distinct schedules per branch family. Each seed draws a
// different fault-point shape and rate vector, so three seeds means three
// materially different torture runs, not three repeats.
var tortureSeeds = []uint64{1, 0xDECAFBAD, 0x5EED5EED5EED}

func runTortureFamily(t *testing.T, branches []engine.Branch) {
	t.Helper()
	for _, b := range branches {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			t.Parallel()
			for _, seed := range tortureSeeds {
				rep := torture.Run(torture.Config{
					Branch: b,
					Seed:   seed,
					Short:  *tortureShort,
				})
				if rep.Failed() {
					// Report.String embeds the seed; replay with
					// mctorture -branch <b> -seed <seed>.
					t.Errorf("%s", rep)
				} else {
					t.Logf("%s", rep)
				}
			}
		})
	}
}

// TestTortureLockFamily covers the lock-based branches: the pthreads baseline
// and the Figure 2 semaphore restructuring.
func TestTortureLockFamily(t *testing.T) {
	runTortureFamily(t, []engine.Branch{engine.Baseline, engine.Semaphore})
}

// TestTortureIPFamily covers in-place (write-through) transactional branches
// across the staging spectrum.
func TestTortureIPFamily(t *testing.T) {
	runTortureFamily(t, []engine.Branch{engine.IP, engine.IPOnCommit, engine.IPNoLock})
}

// TestTortureITFamily covers the instrumented-volatile (IT) branches.
func TestTortureITFamily(t *testing.T) {
	runTortureFamily(t, []engine.Branch{engine.IT, engine.ITOnCommit, engine.ITNoLock})
}

// TestTortureModeFlap is the controller-swap correctness proof: seeded forced
// algorithm swaps — at least 50 per run, each quiescing its shard through the
// serial lock — while the chaos and stable phases churn a four-domain cache.
// A transaction observing mixed-algorithm state (or a swap clobbering an
// in-flight attempt's effects) surfaces as a lost or corrupted stable key, an
// unbalanced refcount, or a slab accounting mismatch in the check phase.
func TestTortureModeFlap(t *testing.T) {
	for _, b := range []engine.Branch{engine.IPOnCommit, engine.ITOnCommit} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			t.Parallel()
			for _, seed := range tortureSeeds {
				rep := torture.Run(torture.Config{
					Branch:    b,
					Seed:      seed,
					Shards:    4,
					ModeFlaps: 50,
					Short:     *tortureShort,
				})
				if rep.Failed() {
					// Replay: mctorture -branch <b> -seed <seed> -shards 4 -flaps 50
					t.Errorf("%s", rep)
				} else if rep.ModeSwaps < 50 {
					t.Errorf("only %d mode swaps executed, want >= 50", rep.ModeSwaps)
				} else {
					t.Logf("%s", rep)
				}
			}
		})
	}
}

// TestTortureSharded runs the torture schedules against a four-domain cache:
// four private hash tables expanding independently under key churn (the
// lost-key check must survive every per-shard expansion), with refcount and
// slab balance validated as the sum over shards. One lock branch and one TM
// branch cover both router paths.
func TestTortureSharded(t *testing.T) {
	for _, b := range []engine.Branch{engine.Baseline, engine.ITOnCommit} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			t.Parallel()
			for _, seed := range tortureSeeds {
				rep := torture.Run(torture.Config{
					Branch: b,
					Seed:   seed,
					Shards: 4,
					Short:  *tortureShort,
				})
				if rep.Failed() {
					// Replay: mctorture -branch <b> -seed <seed> -shards 4
					t.Errorf("%s", rep)
				} else {
					t.Logf("%s", rep)
				}
			}
		})
	}
}

// TestTortureTxn is the wire-transaction atomicity proof: concurrent
// cross-shard transfers through CommitTx's N-domain ordered commit while the
// STM and maintenance fault points fire, checked against a conserved unit
// total. A torn commit — one shard's serial domain applied, another's not —
// or a validation that passes on a stale read surfaces as a wrong ledger sum.
func TestTortureTxn(t *testing.T) {
	for _, shards := range []int{2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			for _, seed := range tortureSeeds {
				rep := torture.RunTxn(torture.Config{
					Branch: engine.ITOnCommit,
					Seed:   seed,
					Shards: shards,
					Short:  *tortureShort,
				})
				if rep.Failed() {
					// Replay: mctorture -txn -branch it-oncommit -seed <seed> -shards <n>
					t.Errorf("%s", rep)
				} else {
					t.Logf("%s", rep)
				}
			}
		})
	}
}

// tortureMutant runs the seeded-bug cases, which are expected to FAIL the
// harness and are therefore skipped by default:
//
//	go test -run TortureRecycleMutant ./internal/engine -torture.mutant
var tortureMutant = flag.Bool("torture.mutant", false, "run the mutation cases (seeded bugs the torture suite must catch)")

func runRecycle(t *testing.T, b engine.Branch, mix torture.Mix) {
	t.Run(fmt.Sprintf("%s/%s", b, mix), func(t *testing.T) {
		t.Parallel()
		rep := torture.RunRecycle(torture.Config{Branch: b, Seed: 0xC4A27, Mix: mix, Short: *tortureShort})
		if rep.Failed() {
			t.Errorf("%s", rep)
		} else {
			t.Logf("%s", rep)
		}
	})
}

// TestTortureRecycle is the chunk-reuse proof: a cache a few pages small, so
// that every store evicts and refills a chunk some reader may just have found,
// with every reply checked against its key and exact chunk ownership checked
// at the end. Per-key gets run on all 14 branches; multi-get batches, which
// read without a reference, on one branch of each family (lock, IP, IT,
// NoLock); wire transactions, which allocate inside their commit transaction,
// on the IT branch that supports them.
func TestTortureRecycle(t *testing.T) {
	for _, b := range engine.Branches() {
		runRecycle(t, b, torture.MixGet)
	}
	for _, b := range []engine.Branch{engine.Baseline, engine.IPOnCommit, engine.ITOnCommit, engine.ITNoLock} {
		runRecycle(t, b, torture.MixBatch)
	}
	runRecycle(t, engine.ITOnCommit, torture.MixTxn)
}

// TestTortureRecycleMutant seeds the bug the chunk-ownership rule exists to
// prevent — key, value and plain fields stored directly into a recycled chunk
// while the transaction that took it is still open, so readers that began
// earlier see torn values and an abort leaves a linked entry with another
// key's bytes — and requires TestTortureRecycle's harness to catch it. The
// mutant acts where allocations nest: every set of the wire-transaction mix.
func TestTortureRecycleMutant(t *testing.T) {
	if !*tortureMutant {
		t.Skip("mutation case: run with -torture.mutant")
	}
	for _, seed := range tortureSeeds {
		rep := torture.RunRecycle(torture.Config{Branch: engine.ITOnCommit, Seed: seed, Mix: torture.MixTxn, Prepare: engine.RecycleInTx})
		if !rep.Failed() {
			t.Errorf("seed %d: recycled chunks filled inside open transactions went unnoticed", seed)
		} else {
			t.Logf("caught:\n%s", rep)
		}
	}
}
