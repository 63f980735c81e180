package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/txobs"
)

// newShardedCache builds a cache partitioned into the given number of TM
// domains. The total memory limit is scaled so each shard gets the same 2 MiB
// the single-domain test fixture uses.
func newShardedCache(t *testing.T, b Branch, shards int) *Cache {
	t.Helper()
	c := New(Config{
		Branch:    b,
		Shards:    shards,
		MemLimit:  uint64(shards) * (2 << 20),
		HashPower: 6,
		Stripes:   64,
		Automove:  true,
	})
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

func shardedKey(i int) []byte { return fmt.Appendf(nil, "shkey-%04d", i) }

// forEachShardedBranch runs fn against a started 4-shard cache per branch.
func forEachShardedBranch(t *testing.T, fn func(t *testing.T, c *Cache)) {
	t.Helper()
	for _, b := range Branches() {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			fn(t, newShardedCache(t, b, 4))
		})
	}
}

// TestShardedRoutingRoundTrip: with four domains, every stored key comes back
// through the router, deletes land on the owning shard, and the keys actually
// spread — each shard's private hash table holds a non-empty slice of them.
func TestShardedRoutingRoundTrip(t *testing.T) {
	forEachShardedBranch(t, func(t *testing.T, c *Cache) {
		if c.NumShards() != 4 {
			t.Fatalf("NumShards = %d, want 4", c.NumShards())
		}
		w := c.NewWorker()
		const n = 512
		for i := 0; i < n; i++ {
			if res := w.Set(shardedKey(i), uint32(i), 0, fmt.Appendf(nil, "val-%d", i)); res != Stored {
				t.Fatalf("Set %d = %v", i, res)
			}
		}
		for i := 0; i < n; i++ {
			val, flags, _, ok := w.Get(shardedKey(i))
			if !ok || flags != uint32(i) || string(val) != fmt.Sprintf("val-%d", i) {
				t.Fatalf("Get %d = %q flags=%d ok=%v", i, val, flags, ok)
			}
		}
		// The router spreads keys: no shard may be empty with 512 keys on 4
		// domains (the hash is deterministic, so this cannot flake).
		for i, sw := range w.ws {
			if items := sw.Stats().CurrItems; items == 0 {
				t.Errorf("shard %d holds no items out of %d keys", i, n)
			}
		}
		// Deletes route to the same shard the store landed on.
		for i := 0; i < n; i += 2 {
			if !w.Delete(shardedKey(i)) {
				t.Fatalf("Delete %d missed", i)
			}
		}
		for i := 0; i < n; i++ {
			_, _, _, ok := w.Get(shardedKey(i))
			if want := i%2 == 1; ok != want {
				t.Fatalf("after deletes, Get %d ok=%v want %v", i, ok, want)
			}
		}
		if s := w.Stats(); s.CurrItems != n/2 {
			t.Errorf("merged CurrItems = %d, want %d", s.CurrItems, n/2)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("Validate: %v", err)
		}
	})
}

// TestShardedGetMulti: a multi-get spanning shards splits into per-shard
// groups and scatters the results back in caller order, with correct per-key
// found flags for present, missing and expired keys; the merged hit/miss
// accounting equals what a single domain would report.
func TestShardedGetMulti(t *testing.T) {
	forEachShardedBranch(t, func(t *testing.T, c *Cache) {
		w := c.NewWorker()
		now := c.Now()
		const n = 100
		want := make(map[string]string, n)
		for i := 0; i < n; i++ {
			k, v := shardedKey(i), fmt.Sprintf("val-%d", i)
			want[string(k)] = v
			w.Set(k, 7, 0, []byte(v))
		}
		w.Set([]byte("doomed"), 0, now+5, []byte("x"))
		c.SetTime(now + 10) // expire "doomed" on every shard

		keys := make([][]byte, 0, n+2)
		for i := 0; i < n; i++ {
			keys = append(keys, shardedKey(i))
			if i == 40 {
				keys = append(keys, []byte("doomed"), []byte("never-set"))
			}
		}
		out := w.GetMulti(keys)
		if len(out) != len(keys) {
			t.Fatalf("%d results for %d keys", len(out), len(keys))
		}
		hits := 0
		for i, r := range out {
			k := string(keys[i])
			switch k {
			case "doomed", "never-set":
				if r.Found {
					t.Errorf("key %q found, want miss", k)
				}
			default:
				if !r.Found || r.Flags != 7 {
					t.Fatalf("key %q: found=%v flags=%d", k, r.Found, r.Flags)
				}
				if string(r.Value) != want[k] {
					t.Errorf("key %q = %q, want %q", k, r.Value, want[k])
				}
				hits++
			}
		}
		if hits != n {
			t.Errorf("hits = %d, want %d", hits, n)
		}
		s := w.Stats()
		if s.GetCmds != uint64(len(keys)) || s.GetHits != uint64(n) || s.GetMisses != 2 {
			t.Errorf("merged get stats = cmds %d hits %d misses %d, want %d/%d/2",
				s.GetCmds, s.GetHits, s.GetMisses, len(keys), n)
		}
		// Multiple shards actually served the batch.
		served := 0
		for _, sw := range w.ws {
			if sw.Stats().GetCmds > 0 {
				served++
			}
		}
		if served < 2 {
			t.Errorf("only %d shards served the multi-get; routing is degenerate", served)
		}
	})
}

// TestShardedGetMultiSnapshotPerShard pins down the documented isolation
// contract: snapshot isolation holds PER SHARD, not globally. Two occurrences
// of the same key inside one batch group always resolve against the same
// snapshot — a concurrent writer's SET either precedes or follows the whole
// group — so their CAS values can never differ, no matter how the writer
// interleaves. (Keys on different shards carry no such guarantee; that is the
// same semantics as a cluster of independent memcached nodes.)
func TestShardedGetMultiSnapshotPerShard(t *testing.T) {
	c := newShardedCache(t, ITOnCommit, 4)
	key := []byte("dup-key")
	w := c.NewWorker()
	w.Set(key, 0, 0, []byte("v0"))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ww := c.NewWorker()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ww.Set(key, 0, 0, fmt.Appendf(nil, "v%d", i))
		}
	}()

	keys := [][]byte{key, []byte("other-a"), key, []byte("other-b"), key}
	for iter := 0; iter < 400; iter++ {
		out := w.GetMulti(keys)
		if !out[0].Found || !out[2].Found || !out[4].Found {
			t.Fatal("dup-key missed; writer only ever overwrites it")
		}
		if out[0].CAS != out[2].CAS || out[2].CAS != out[4].CAS {
			t.Fatalf("iter %d: same key in one batch saw CAS %d/%d/%d — snapshot torn",
				iter, out[0].CAS, out[2].CAS, out[4].CAS)
		}
		if string(out[0].Value) != string(out[2].Value) {
			t.Fatalf("iter %d: same key, different values %q vs %q", iter, out[0].Value, out[2].Value)
		}
	}
	close(stop)
	wg.Wait()
}

// TestShardedExpiryAndTouch: SetTime fans out to every shard's clock, so
// expiry is uniform across domains, touch extends items wherever they live,
// and the reclaimed-on-access Expired counters merge.
func TestShardedExpiryAndTouch(t *testing.T) {
	c := newShardedCache(t, ITOnCommit, 4)
	w := c.NewWorker()
	now := c.Now()
	const n = 64
	for i := 0; i < n; i++ {
		w.Set(shardedKey(i), 0, now+5, []byte("v"))
	}
	// Touch extends half of them past the cliff, on whatever shard they live.
	for i := 0; i < n; i += 2 {
		if !w.Touch(shardedKey(i), now+100) {
			t.Fatalf("Touch %d missed", i)
		}
	}
	c.SetTime(now + 50)
	for i := 0; i < n; i++ {
		_, _, _, ok := w.Get(shardedKey(i))
		if want := i%2 == 0; ok != want {
			t.Fatalf("Get %d after expiry: ok=%v want %v", i, ok, want)
		}
	}
	// The odd keys were reclaimed on access; the merged counter saw them all.
	if s := w.Stats(); s.Expired != n/2 {
		t.Errorf("merged Expired = %d, want %d", s.Expired, n/2)
	}
}

// TestShardedFlushAll: flush_all reaches every domain.
func TestShardedFlushAll(t *testing.T) {
	c := newShardedCache(t, ITOnCommit, 4)
	w := c.NewWorker()
	for i := 0; i < 64; i++ {
		w.Set(shardedKey(i), 0, 0, []byte("v"))
	}
	w.FlushAll()
	for i := 0; i < 64; i++ {
		if _, _, _, ok := w.Get(shardedKey(i)); ok {
			t.Fatalf("key %d survived flush_all", i)
		}
	}
	w.Set([]byte("post"), 0, 0, []byte("v"))
	if _, _, _, ok := w.Get([]byte("post")); !ok {
		t.Error("item stored after flush_all is invisible")
	}
}

// TestShardedStatsMergeAndReset is the satellite-1 regression: `stats reset`
// with tracing toggled mid-run. Counters (command, STM) zero on every shard,
// gauges survive, and the shared observer — one collector spanning all
// shards, however many times tracing was flipped — is cleared exactly once.
func TestShardedStatsMergeAndReset(t *testing.T) {
	// Maintenance stays unstarted: the per-shard rebalancer and crawler commit
	// transactions of their own, which would race the zero-counter assertions.
	c := New(Config{Branch: ITOnCommit, Shards: 4, MemLimit: 8 << 20, HashPower: 6})
	w := c.NewWorker()
	load := func() {
		for i := 0; i < 128; i++ {
			w.Set(shardedKey(i), 0, 0, []byte("v"))
			w.Get(shardedKey(i))
		}
	}
	load() // untraced ops first …
	obs := c.EnableTracing()
	load() // … then tracing flips on mid-run

	s := w.Stats()
	if s.SetCmds == 0 || s.GetHits == 0 || s.STM.Commits == 0 {
		t.Fatalf("pre-reset counters empty: %+v", s)
	}
	// The merged STM snapshot is exactly the sum of the per-shard snapshots.
	var commits, aborts, roFast uint64
	for _, ss := range c.ShardStats() {
		commits += ss.Commits
		aborts += ss.Aborts
		roFast += ss.ROFastCommits
	}
	if commits != s.STM.Commits || aborts != s.STM.Aborts || roFast != s.STM.ROFastCommits {
		t.Errorf("per-shard sums (%d/%d/%d) != merged STM (%d/%d/%d)",
			commits, aborts, roFast, s.STM.Commits, s.STM.Aborts, s.STM.ROFastCommits)
	}
	if obs.KindCount(txobs.KBegin) == 0 || obs.KindCount(txobs.KCommit) == 0 {
		t.Fatal("no events recorded with tracing on")
	}

	currItems, currBytes := s.CurrItems, s.CurrBytes
	preCommits := s.STM.Commits
	w.ResetStats()
	// The observer is cleared last in the router's reset, after the per-shard
	// zeroing transactions it would otherwise record — so it reads empty NOW,
	// before the next traced operation.
	if kinds := obs.Report(0).Kinds; len(kinds) != 0 {
		t.Errorf("observer events survived reset: %v", kinds)
	}
	s = w.Stats()
	if s.SetCmds != 0 || s.GetCmds != 0 || s.GetHits != 0 || s.TotalItems != 0 {
		t.Errorf("command counters survived reset: %+v", s.Aggregated)
	}
	// Reading the stats runs a few bookkeeping transactions per shard, so the
	// STM counters are not exactly zero — but the workload's commits are gone.
	if s.STM.Commits >= preCommits || s.STM.Commits > 4*4 {
		t.Errorf("STM commits = %d after reset (pre-reset %d)", s.STM.Commits, preCommits)
	}
	if s.CurrItems != currItems || s.CurrBytes != currBytes {
		t.Errorf("gauges changed across reset: items %d→%d bytes %d→%d",
			currItems, s.CurrItems, currBytes, s.CurrBytes)
	}

	// Toggle tracing off and on again around another reset: the observer is
	// shared, so neither direction may double-clear or leak a shard's view.
	c.DisableTracing()
	load()
	w.ResetStats()
	c.EnableTracing()
	load()
	if s := w.Stats(); s.STM.Commits == 0 {
		t.Error("no commits after re-enable; tracing toggle wedged the runtimes")
	}
	if obs.KindCount(txobs.KBegin) == 0 {
		t.Error("no events after re-enable")
	}
}

// TestShardedTracingNoCrossShardConflicts is the domain-independence proof:
// with tracing attached to all four runtimes at disjoint orec bases, a
// concurrent mixed workload must produce ZERO cross-shard orec conflicts —
// two domains sharing a synchronization word is the one thing sharding
// forbids. Runs cleanly under -race (the Makefile's shard-race pass).
func TestShardedTracingNoCrossShardConflicts(t *testing.T) {
	c := newShardedCache(t, ITOnCommit, 4)
	obs := c.EnableTracing()
	if obs.NumShards() != 4 {
		t.Fatalf("observer NumShards = %d, want 4", obs.NumShards())
	}

	const threads, opsPerThread = 4, 300
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := c.NewWorker()
			batch := make([][]byte, 8)
			for i := 0; i < opsPerThread; i++ {
				k := shardedKey((g*opsPerThread + i) % 256)
				w.Set(k, 0, 0, []byte("vv"))
				w.Get(k)
				w.Incr([]byte("shared-ctr"), 1)
				for j := range batch {
					batch[j] = shardedKey((i + j) % 256)
				}
				w.GetMulti(batch)
			}
		}()
	}
	wg.Wait()

	if n := obs.CrossShardOrecConflicts(); n != 0 {
		t.Errorf("cross_shard_orec_conflicts = %d, want 0: independent domains shared an orec", n)
	}
	if obs.KindCount(txobs.KBegin) == 0 {
		t.Error("no events traced")
	}
	if err := c.ValidateQuiescent(); err != nil {
		t.Errorf("ValidateQuiescent: %v", err)
	}
}

// TestShardedConcurrentRouting hammers the router from several workers under
// the race detector and checks that the per-thread counters, summed across
// shards, account for every operation issued.
func TestShardedConcurrentRouting(t *testing.T) {
	for _, b := range []Branch{Baseline, ITOnCommit} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			c := newShardedCache(t, b, 4)
			const threads, n = 4, 250
			var wg sync.WaitGroup
			for g := 0; g < threads; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					w := c.NewWorker()
					for i := 0; i < n; i++ {
						key := fmt.Appendf(nil, "cc-%d-%04d", g, i)
						if res := w.Set(key, 0, 0, []byte("v")); res != Stored {
							t.Errorf("Set = %v", res)
							return
						}
						if _, _, _, ok := w.Get(key); !ok {
							t.Errorf("Get %q missed own write", key)
							return
						}
					}
				}()
			}
			wg.Wait()
			w := c.NewWorker()
			s := w.Stats()
			if s.SetCmds != threads*n || s.GetHits != threads*n || s.GetMisses != 0 {
				t.Errorf("merged stats sets=%d hits=%d misses=%d, want %d/%d/0",
					s.SetCmds, s.GetHits, s.GetMisses, threads*n, threads*n)
			}
			if s.CurrItems != threads*n {
				t.Errorf("CurrItems = %d, want %d", s.CurrItems, threads*n)
			}
			if err := c.Validate(); err != nil {
				t.Errorf("Validate: %v", err)
			}
		})
	}
}

// TestShardedOrecScaling: the router shrinks each shard's orec table by
// log2(N) so the total footprint — and the orec-per-key density — match the
// single-domain engine; an explicit override wins.
func TestShardedOrecScaling(t *testing.T) {
	single := New(Config{Branch: ITOnCommit, Shards: 1, MemLimit: 2 << 20})
	total := single.Runtime().OrecCount()
	c4 := New(Config{Branch: ITOnCommit, Shards: 4, MemLimit: 8 << 20})
	var sum int
	for _, rt := range c4.Runtimes() {
		sum += rt.OrecCount()
	}
	if sum != total {
		t.Errorf("4-shard orec total = %d, want %d (constant footprint)", sum, total)
	}
}
