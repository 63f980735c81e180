package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/assoc"
	"repro/internal/stm"
	"repro/internal/tm"
)

// keysOnShards returns n keys, one per distinct shard, lowest shard first.
func keysOnShards(t *testing.T, shards, n int) [][]byte {
	t.Helper()
	found := make(map[int][]byte)
	for i := 0; len(found) < n && i < 100000; i++ {
		k := []byte(fmt.Sprintf("wtx-key-%d", i))
		s := shardIndex(assoc.Hash(k), shards)
		if _, ok := found[s]; !ok && s < n {
			found[s] = k
		}
	}
	if len(found) < n {
		t.Fatalf("could not find keys for %d distinct shards", n)
	}
	out := make([][]byte, n)
	for s := 0; s < n; s++ {
		out[s] = found[s]
	}
	return out
}

func newWireTxCache(t *testing.T, branch Branch, shards int) (*Cache, *Worker) {
	t.Helper()
	c := New(Config{Branch: branch, Shards: shards, MemLimit: 16 << 20})
	c.Start()
	t.Cleanup(c.Stop)
	return c, c.NewWorker()
}

func TestTxSupportedGating(t *testing.T) {
	for _, tc := range []struct {
		branch Branch
		want   bool
	}{
		{Baseline, false},  // lock branch: no transactions at all
		{Semaphore, false}, // lock branch
		{IP, false},        // item stripes held across transactions
		{IPMax, false},
		{IT, true},
		{ITMax, true},
		{ITLib, true},
		{ITOnCommit, true},
		{ITNoLock, false}, // serial section excludes nothing speculative
	} {
		c := New(Config{Branch: tc.branch, Shards: 2, MemLimit: 8 << 20})
		if got := c.TxSupported(); got != tc.want {
			t.Errorf("TxSupported(%s) = %v, want %v", tc.branch, got, tc.want)
		}
	}
}

func TestWireTxSingleShardCommit(t *testing.T) {
	_, w := newWireTxCache(t, IT, 1)
	if w.Set([]byte("a"), 0, 0, []byte("5")) != Stored {
		t.Fatal("seed set failed")
	}
	_, _, cas, ok := w.Get([]byte("a"))
	if !ok {
		t.Fatal("seed get failed")
	}

	out := w.CommitTx(
		[]TxRead{{Key: []byte("a"), CAS: cas}},
		[]TxOp{
			{Kind: TxIncr, Key: []byte("a"), Delta: 7},
			{Kind: TxSet, Key: []byte("b"), Value: []byte("vb")},
		},
	)
	if !out.Committed {
		t.Fatalf("commit failed: conflict on %q", out.ConflictKey)
	}
	if out.Shards != 1 {
		t.Fatalf("outcome = %+v, want single-shard", out)
	}
	if out.Results[0].Kind != TxIncr || out.Results[0].Delta != DeltaOK || out.Results[0].NewValue != 12 {
		t.Fatalf("incr result = %+v", out.Results[0])
	}
	if out.Results[1].Store != Stored {
		t.Fatalf("set result = %+v", out.Results[1])
	}
	if v, _, _, ok := w.Get([]byte("b")); !ok || string(v) != "vb" {
		t.Fatalf("b = %q, %v", v, ok)
	}
	s := w.Stats()
	if s.TxCommits != 1 || s.TxConflicts != 0 {
		t.Fatalf("tx counters = %d/%d, want 1/0", s.TxCommits, s.TxConflicts)
	}
}

func TestWireTxConflictAppliesNothing(t *testing.T) {
	_, w := newWireTxCache(t, IT, 2)
	if w.Set([]byte("a"), 0, 0, []byte("old")) != Stored {
		t.Fatal("seed set failed")
	}
	_, _, cas, _ := w.Get([]byte("a"))

	// Another client overwrites "a" after our read: its CAS moves on.
	if w.Set([]byte("a"), 0, 0, []byte("intervening")) != Stored {
		t.Fatal("intervening set failed")
	}

	out := w.CommitTx(
		[]TxRead{{Key: []byte("a"), CAS: cas}},
		[]TxOp{{Kind: TxSet, Key: []byte("never"), Value: []byte("x")}},
	)
	if out.Committed {
		t.Fatal("commit succeeded despite stale read")
	}
	if string(out.ConflictKey) != "a" {
		t.Fatalf("ConflictKey = %q, want a", out.ConflictKey)
	}
	if _, _, _, ok := w.Get([]byte("never")); ok {
		t.Fatal("conflicted transaction applied a write")
	}
	s := w.Stats()
	if s.TxCommits != 0 || s.TxConflicts != 1 {
		t.Fatalf("tx counters = %d commits / %d conflicts, want 0/1", s.TxCommits, s.TxConflicts)
	}
}

func TestWireTxAbsentReadValidates(t *testing.T) {
	_, w := newWireTxCache(t, IT, 1)
	// Reading an absent key records CAS 0; the commit must validate absence.
	out := w.CommitTx(
		[]TxRead{{Key: []byte("ghost"), CAS: 0}},
		[]TxOp{{Kind: TxSet, Key: []byte("ghost"), Value: []byte("now")}},
	)
	if !out.Committed {
		t.Fatalf("absent-read commit failed: %+v", out)
	}
	// Now the key exists: a second transaction that still assumes absence
	// must conflict.
	out = w.CommitTx([]TxRead{{Key: []byte("ghost"), CAS: 0}}, nil)
	if out.Committed {
		t.Fatal("stale absence validated")
	}
}

func TestWireTxCrossShardTransfer(t *testing.T) {
	c, w := newWireTxCache(t, ITMax, 4)
	keys := keysOnShards(t, c.NumShards(), 2)
	a, b := keys[0], keys[1]
	if w.Set(a, 0, 0, []byte("100")) != Stored || w.Set(b, 0, 0, []byte("100")) != Stored {
		t.Fatal("seed sets failed")
	}

	out := w.CommitTx(nil, []TxOp{
		{Kind: TxDecr, Key: a, Delta: 30},
		{Kind: TxIncr, Key: b, Delta: 30},
	})
	if !out.Committed {
		t.Fatalf("cross-shard commit failed: %+v", out)
	}
	if out.Shards != 2 {
		t.Fatalf("Shards = %d, want 2", out.Shards)
	}
	va, _, _, _ := w.Get(a)
	vb, _, _, _ := w.Get(b)
	if string(va) != "70" || string(vb) != "130" {
		t.Fatalf("balances = %s/%s, want 70/130", va, vb)
	}
	if s := w.Stats(); s.TxCommits != 1 {
		t.Fatalf("TxCommits = %d, want 1", s.TxCommits)
	}
}

// TestWireTxWaitsForBusyDomain parks a serial transaction on the higher of a
// cross-shard commit's two shards. The commit must wait for it, not give up
// or widen its hold: it returns only after the parked transaction ends, then
// applies atomically, and the shards it does not touch run no serial
// transaction on its behalf.
func TestWireTxWaitsForBusyDomain(t *testing.T) {
	c, w := newWireTxCache(t, IT, 4)
	keys := keysOnShards(t, c.NumShards(), 2)
	a, b := keys[0], keys[1]
	if w.Set(a, 0, 0, []byte("10")) != Stored || w.Set(b, 0, 0, []byte("10")) != Stored {
		t.Fatal("seed sets failed")
	}

	// Park a serial transaction on shard 1, the commit's second domain: the
	// commit has already taken shard 0 when it reaches it.
	hold := c.shards[1].rt.NewThread()
	held := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = tm.Relaxed(hold, tm.Options{StartSerial: true}, func(tx *stm.Tx) {
			close(held)
			<-release
		})
	}()
	<-held

	untouched := []int{2, 3}
	before := make([]stm.Snapshot, len(untouched))
	for i, s := range untouched {
		before[i] = c.shards[s].rt.Stats()
	}
	var out TxOutcome
	commitDone := make(chan struct{})
	go func() {
		defer close(commitDone)
		out = w.CommitTx(nil, []TxOp{
			{Kind: TxDecr, Key: a, Delta: 3},
			{Kind: TxIncr, Key: b, Delta: 3},
		})
	}()
	returnedEarly := false
	select {
	case <-commitDone:
		returnedEarly = true
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	<-done
	<-commitDone
	if returnedEarly {
		t.Error("commit returned while its second domain was held")
	}

	if !out.Committed || out.Shards != 2 {
		t.Fatalf("outcome = %+v, want a committed 2-shard transaction", out)
	}
	for i, s := range untouched {
		d := c.shards[s].rt.Stats().Sub(before[i])
		if d.StartSerial != 0 || d.SerialCommits != 0 {
			t.Errorf("untouched shard %d: StartSerial +%d, SerialCommits +%d during the commit, want 0",
				s, d.StartSerial, d.SerialCommits)
		}
	}
	va, _, _, _ := w.Get(a)
	vb, _, _, _ := w.Get(b)
	if string(va) != "7" || string(vb) != "13" {
		t.Fatalf("balances = %s/%s, want 7/13", va, vb)
	}
}

// TestWireTxConcurrentTransfersConserve is the in-process miniature of
// mctorture -txn: concurrent cross-shard transfers over a small account set
// must conserve the total, and the engine must stay structurally sound.
func TestWireTxConcurrentTransfersConserve(t *testing.T) {
	c, _ := newWireTxCache(t, ITMax, 4)
	const accounts = 8
	const perAccount = 1000
	seedW := c.NewWorker()
	keys := make([][]byte, accounts)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("acct-%d", i))
		if seedW.Set(keys[i], 0, 0, []byte(fmt.Sprintf("%d", perAccount))) != Stored {
			t.Fatal("seed set failed")
		}
	}

	const workers = 4
	const transfers = 200
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := c.NewWorker()
			rng := uint64(g)*0x9e3779b97f4a7c15 + 1
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}
			for i := 0; i < transfers; i++ {
				from, to := next(accounts), next(accounts)
				if from == to {
					continue
				}
				// Transfer 1 unit; Decr saturates at zero, so validate the
				// source balance via its CAS to keep the invariant exact.
				v, _, cas, ok := w.Get(keys[from])
				if !ok || len(v) == 0 || string(v) == "0" {
					continue
				}
				w.CommitTx(
					[]TxRead{{Key: keys[from], CAS: cas}},
					[]TxOp{
						{Kind: TxDecr, Key: keys[from], Delta: 1},
						{Kind: TxIncr, Key: keys[to], Delta: 1},
					},
				)
			}
		}(g)
	}
	wg.Wait()

	w := c.NewWorker()
	total := uint64(0)
	for _, k := range keys {
		v, _, _, ok := w.Get(k)
		if !ok {
			t.Fatalf("account %s vanished", k)
		}
		var n uint64
		if _, err := fmt.Sscanf(string(v), "%d", &n); err != nil {
			t.Fatalf("account %s = %q: %v", k, v, err)
		}
		total += n
	}
	if total != accounts*perAccount {
		t.Fatalf("total = %d, want %d (units lost or created)", total, accounts*perAccount)
	}
	if err := c.ValidateQuiescent(); err != nil {
		t.Fatalf("ValidateQuiescent: %v", err)
	}
	s := w.Stats()
	if s.TxCommits == 0 {
		t.Fatal("no transactions committed")
	}
	t.Logf("tx: %d commits, %d conflicts", s.TxCommits, s.TxConflicts)
}

// TestWireTxStatsReset pins the exactly-once reset of the tx counters.
func TestWireTxStatsReset(t *testing.T) {
	_, w := newWireTxCache(t, IT, 2)
	w.CommitTx(nil, []TxOp{{Kind: TxSet, Key: []byte("k"), Value: []byte("v")}})
	if s := w.Stats(); s.TxCommits != 1 {
		t.Fatalf("TxCommits = %d, want 1", s.TxCommits)
	}
	w.ResetStats()
	if s := w.Stats(); s.TxCommits != 0 || s.TxConflicts != 0 {
		t.Fatalf("counters after reset = %d/%d, want zeros", s.TxCommits, s.TxConflicts)
	}
}
