package engine

import (
	"fmt"
	"sync"
	"testing"
)

// TestFingerprintRecordsEngineOps drives a skewed workload through a worker
// and checks the observer sees it: per-shard op mix, hit/miss split, value
// sizes, and the hot key surfacing in the right shard's sketch with a
// meaningful concentration estimate.
func TestFingerprintRecordsEngineOps(t *testing.T) {
	c, w := newWireTxCache(t, ITOnCommit, 4)
	if c.Fingerprint() != nil {
		t.Fatal("observer exists before EnableFingerprint")
	}
	if w.FingerprintEnabled() {
		t.Fatal("FingerprintEnabled true before enable")
	}
	o := c.EnableFingerprint()
	if o == nil || c.Fingerprint() != o || !w.FingerprintEnabled() {
		t.Fatal("enable did not install the observer")
	}
	if again := c.EnableFingerprint(); again != o {
		t.Fatal("second EnableFingerprint returned a different observer")
	}

	hot := []byte("blistering")
	w.Set(hot, 0, 0, make([]byte, 100))
	for i := 0; i < 200; i++ {
		w.Get(hot)
	}
	for i := 0; i < 20; i++ {
		k := []byte(fmt.Sprintf("cold-%d", i))
		w.Set(k, 0, 0, []byte("xx"))
		w.Get(k)
		w.Get([]byte(fmt.Sprintf("absent-%d", i)))
	}
	w.Delete([]byte("cold-0"))
	w.Incr([]byte("not-numeric-or-present"), 1)
	w.Touch(hot, 60)

	snap := o.Snapshot()
	if len(snap.Shards) != 4 {
		t.Fatalf("snapshot shards = %d, want 4", len(snap.Shards))
	}
	var total ShardSnapshotTotals
	hotShard := -1
	for i, s := range snap.Shards {
		total.Ops += s.Ops
		total.Reads += s.Reads
		total.Writes += s.Writes
		total.Deletes += s.Deletes
		total.Misses += s.Misses
		for _, hk := range s.HotKeys {
			if hk.Key == string(hot) {
				hotShard = i
				if hk.Count < 100 {
					t.Errorf("hot key count = %d, want >= 100", hk.Count)
				}
			}
		}
	}
	if total.Reads < 200 || total.Writes < 21 || total.Deletes != 1 || total.Misses < 20 {
		t.Fatalf("op mix not recorded: %+v", total)
	}
	if hotShard < 0 {
		t.Fatal("hot key absent from every shard sketch")
	}
	hs := snap.Shards[hotShard]
	if hs.Concentration <= 0 || hs.Concentration > 1 {
		t.Fatalf("hot shard concentration = %v, want (0, 1]", hs.Concentration)
	}
	if hs.VSize.Count == 0 || hs.VSize.Max < 100 {
		t.Fatalf("value-size histogram empty or missed the 100-byte value: %+v", hs.VSize)
	}

	// Disable flips op paths back to the nil load; collected windows stay.
	c.DisableFingerprint()
	if w.FingerprintEnabled() {
		t.Fatal("FingerprintEnabled true after disable")
	}
	before := o.Snapshot().Shards[hotShard].Ops
	for i := 0; i < 50; i++ {
		w.Get(hot)
	}
	if after := o.Snapshot().Shards[hotShard].Ops; after != before {
		t.Fatalf("ops recorded while disabled: %d -> %d", before, after)
	}
	if c.Fingerprint() != o {
		t.Fatal("disable dropped the observer; windows must stay queryable")
	}
}

// ShardSnapshotTotals accumulates per-shard counters in tests.
type ShardSnapshotTotals struct {
	Ops, Reads, Writes, Deletes, Misses uint64
}

// TestFingerprintTxnPhases checks CommitTx feeds the cache-global phase
// histograms: validate and apply on every commit, serial wait only when the
// commit spans shards and must order behind the cross-shard token.
func TestFingerprintTxnPhases(t *testing.T) {
	c, w := newWireTxCache(t, ITOnCommit, 2)
	o := c.EnableFingerprint()

	keys := keysOnShards(t, 2, 2)
	out := w.CommitTx(nil, []TxOp{
		{Kind: TxSet, Key: keys[0], Value: []byte("a")},
	})
	if !out.Committed {
		t.Fatalf("single-shard commit: %+v", out)
	}
	s := o.Snapshot()
	if s.TxnValidate.Count == 0 || s.TxnApply.Count == 0 {
		t.Fatalf("validate/apply histograms empty after commit: %+v", s)
	}
	base := s.TxnSerialWait.Count

	out = w.CommitTx(nil, []TxOp{
		{Kind: TxSet, Key: keys[0], Value: []byte("b")},
		{Kind: TxSet, Key: keys[1], Value: []byte("c")},
	})
	if !out.Committed {
		t.Fatalf("cross-shard commit: %+v", out)
	}
	if got := o.Snapshot().TxnSerialWait.Count; got <= base {
		t.Fatalf("cross-shard commit did not record serial wait: %d -> %d", base, got)
	}

	// While disabled, commits must not touch the phase histograms.
	c.DisableFingerprint()
	v := o.Snapshot().TxnValidate.Count
	if out = w.CommitTx(nil, []TxOp{{Kind: TxSet, Key: keys[0], Value: []byte("d")}}); !out.Committed {
		t.Fatalf("commit while disabled: %+v", out)
	}
	if got := o.Snapshot().TxnValidate.Count; got != v {
		t.Fatalf("phase histogram advanced while disabled: %d -> %d", v, got)
	}
}

// TestFingerprintResetExactlyOnce covers the `stats reset` contract: the
// cache-global observer clears once per Worker.ResetStats even when resets
// race each other and live traffic — counters may keep moving, but nothing
// underflows and enabled-state survives.
func TestFingerprintResetExactlyOnce(t *testing.T) {
	c, w := newWireTxCache(t, ITOnCommit, 2)
	o := c.EnableFingerprint()

	w.Set([]byte("seed"), 0, 0, []byte("v"))
	for i := 0; i < 50; i++ {
		w.Get([]byte("seed"))
	}
	if o.Snapshot().Shards[w.ShardOf([]byte("seed"))].Ops == 0 {
		t.Fatal("no ops before reset")
	}

	var traffic, resets sync.WaitGroup
	stop := make(chan struct{})
	traffic.Add(1)
	go func() { // live traffic racing the resets
		defer traffic.Done()
		tw := c.NewWorker()
		for {
			select {
			case <-stop:
				return
			default:
				tw.Get([]byte("seed"))
			}
		}
	}()
	for i := 0; i < 4; i++ {
		resets.Add(1)
		go func() {
			defer resets.Done()
			rw := c.NewWorker()
			for j := 0; j < 20; j++ {
				rw.ResetStats()
			}
		}()
	}
	resets.Wait()
	close(stop)
	traffic.Wait()

	if !w.FingerprintEnabled() {
		t.Fatal("reset turned fingerprinting off")
	}
	w.ResetStats()
	// After a quiescent reset the windows are near-empty; anything recorded
	// since is small and non-negative by construction (counters are uint64
	// adds, so the real hazard — double-subtraction — shows up as huge
	// values).
	for i, s := range o.Snapshot().Shards {
		if s.Ops > 1<<40 {
			t.Fatalf("shard %d ops implausible after raced resets: %d", i, s.Ops)
		}
	}
}
