package engine

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/access"
	"repro/internal/item"
)

// TestMultiGetRoundTrip: present, missing and expired keys come back in
// order, with per-key found flags, on every branch (batched and per-key
// fallback paths alike).
func TestMultiGetRoundTrip(t *testing.T) {
	forEachBranch(t, func(t *testing.T, c *Cache) {
		w := c.NewWorker()
		now := c.Now()
		w.Set([]byte("a"), 1, 0, []byte("va"))
		w.Set([]byte("b"), 2, 0, []byte("vb"))
		w.Set([]byte("gone"), 3, now+5, []byte("dead"))
		c.SetTime(now + 10) // "gone" is now past its expiry

		keys := [][]byte{[]byte("a"), []byte("missing"), []byte("gone"), []byte("b")}
		res := w.GetMulti(keys)
		if len(res) != len(keys) {
			t.Fatalf("GetMulti returned %d results for %d keys", len(res), len(keys))
		}
		if !res[0].Found || string(res[0].Value) != "va" || res[0].Flags != 1 || res[0].CAS == 0 {
			t.Errorf("res[a] = %+v", res[0])
		}
		if res[1].Found {
			t.Errorf("missing key reported found: %+v", res[1])
		}
		if res[2].Found {
			t.Errorf("expired key reported found: %+v", res[2])
		}
		if !res[3].Found || string(res[3].Value) != "vb" || res[3].Flags != 2 {
			t.Errorf("res[b] = %+v", res[3])
		}

		// The deferred unlink must have reclaimed the expired item: a
		// subsequent per-key get misses too, and the structure validates.
		if _, _, _, ok := w.Get([]byte("gone")); ok {
			t.Error("expired key still gettable after batched miss")
		}
		if err := c.Validate(); err != nil {
			t.Errorf("Validate after GetMulti: %v", err)
		}
	})
}

// TestMultiGetLargeBatch spans several MultiGetBatch groups and duplicate
// keys in one call.
func TestMultiGetLargeBatch(t *testing.T) {
	forEachBranch(t, func(t *testing.T, c *Cache) {
		w := c.NewWorker()
		const n = 3*MultiGetBatch + 5
		keys := make([][]byte, 0, n)
		for i := 0; i < n; i++ {
			k := fmt.Appendf(nil, "key-%03d", i%40) // some duplicates
			keys = append(keys, k)
			if i < 40 && i%3 != 0 {
				w.Set(k, uint32(i), 0, fmt.Appendf(nil, "value-%03d", i%40))
			}
		}
		res := w.GetMulti(keys)
		for i, k := range keys {
			want := fmt.Appendf(nil, "value-%03d", i%40)
			if res[i].Found && !bytes.Equal(res[i].Value, want) {
				t.Fatalf("res[%d] (%s) = %q, want %q", i, k, res[i].Value, want)
			}
			// Duplicates of the same key must agree within one call.
			for j := 0; j < i; j++ {
				if bytes.Equal(keys[j], k) && res[j].Found != res[i].Found {
					t.Fatalf("duplicate key %s: found=%v at %d but %v at %d", k, res[j].Found, j, res[i].Found, i)
				}
			}
		}
	})
}

// TestMultiGetUsesReadOnlyFastPath: on an atomic transactional IT branch the
// batch commits on the read-only fast path — observable as ROFastCommits —
// and counts every key in the hit/miss statistics.
func TestMultiGetUsesReadOnlyFastPath(t *testing.T) {
	c := newTestCache(t, ITOnCommit)
	c.Start()
	defer c.Stop()
	w := c.NewWorker()
	for i := 0; i < MultiGetBatch; i++ {
		w.Set(fmt.Appendf(nil, "k%02d", i), 0, 0, []byte("v"))
	}
	before := c.Runtime().Stats()
	keys := make([][]byte, MultiGetBatch)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "k%02d", i)
	}
	keys[3] = []byte("nope") // one miss in the middle
	res := w.GetMulti(keys)
	delta := c.Runtime().Stats().Sub(before)
	if delta.ROFastCommits == 0 {
		t.Errorf("batched GetMulti produced no read-only fast commits (delta %+v)", delta)
	}
	hits := 0
	for _, r := range res {
		if r.Found {
			hits++
		}
	}
	if hits != MultiGetBatch-1 {
		t.Errorf("hits = %d, want %d", hits, MultiGetBatch-1)
	}
	s := w.Stats()
	if s.GetCmds != uint64(MultiGetBatch) || s.GetHits != uint64(MultiGetBatch-1) || s.GetMisses != 1 {
		t.Errorf("stats = cmds %d hits %d misses %d", s.GetCmds, s.GetHits, s.GetMisses)
	}
}

// TestMultiGetSnapshotIsolation is the race test for batch snapshot
// isolation: a SET that lands mid-batch must not be half-visible. Reading the
// same key four times in one batch, all four results must be identical even
// while a writer loops on that key. Run under -race by the Makefile's
// batch-race target.
func TestMultiGetSnapshotIsolation(t *testing.T) {
	for _, b := range []Branch{IT, ITMax, ITLib, ITOnCommit, ITNoLock} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			c := newTestCache(t, b)
			c.Start()
			defer c.Stop()
			key := []byte("contended")
			c.NewWorker().Set(key, 0, 0, []byte("gen-000000"))

			var stop atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := c.NewWorker()
				for i := 1; !stop.Load(); i++ {
					w.Set(key, 0, 0, fmt.Appendf(nil, "gen-%06d", i))
				}
			}()

			r := c.NewWorker()
			keys := [][]byte{key, key, key, key}
			for i := 0; i < 2000; i++ {
				res := r.GetMulti(keys)
				for j := 1; j < len(res); j++ {
					if res[j].Found != res[0].Found || !bytes.Equal(res[j].Value, res[0].Value) || res[j].CAS != res[0].CAS {
						t.Errorf("batch saw two generations at once: %q (cas %d) vs %q (cas %d)",
							res[0].Value, res[0].CAS, res[j].Value, res[j].CAS)
						stop.Store(true)
						wg.Wait()
						return
					}
				}
			}
			stop.Store(true)
			wg.Wait()
		})
	}
}

// TestMultiGetTouchesLRU: a hit bumps its item to the head of the LRU only
// once the last bump is touchInterval old, on the single-get path and on the
// batch path, where the bump runs outside the read-only batch. The cache is
// never started, so only SetTime moves the clock.
func TestMultiGetTouchesLRU(t *testing.T) {
	paths := []struct {
		name string
		get  func(w *Worker, key []byte) bool
	}{
		{"get", func(w *Worker, key []byte) bool { _, _, _, ok := w.Get(key); return ok }},
		{"batch", func(w *Worker, key []byte) bool { return w.GetMulti([][]byte{key, []byte("absent")})[0].Found }},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			c := newTestCache(t, ITOnCommit)
			w := c.NewWorker()
			now := c.Now()
			w.Set([]byte("old"), 0, 0, []byte("v"))
			w.Set([]byte("new"), 0, 0, []byte("v")) // same class, linked last
			cls := chunkOf(t, c, "old").Class
			head := func() *item.Item { return c.shard0().lru.Head(access.DirectCtx{}, cls) }

			c.SetTime(now + touchInterval - 1)
			if !p.get(w, []byte("old")) {
				t.Fatal("old key missed")
			}
			if head() != chunkOf(t, c, "new") {
				t.Errorf("a hit %d s after the last bump moved the item to the LRU head", touchInterval-1)
			}
			c.SetTime(now + touchInterval)
			if !p.get(w, []byte("old")) {
				t.Fatal("old key missed")
			}
			if head() != chunkOf(t, c, "old") {
				t.Errorf("a hit %d s after the last bump left the item off the LRU head", touchInterval)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("Validate after touch: %v", err)
			}
		})
	}
}

// BenchmarkGetMulti times one 24-key get of 256-byte values on it-oncommit
// over 50 000 keys, the command multiget_text sends (EXPERIMENTS.md quotes it
// against the parent commit). Most of it is the value copies out of the
// items' buffers, so it prices the TBytes read barrier.
func BenchmarkGetMulti(b *testing.B) {
	c := New(Config{Branch: ITOnCommit, MemLimit: 64 << 20})
	c.Start()
	defer c.Stop()
	w := c.NewWorker()
	const nkeys = 50000
	keys := make([][]byte, nkeys)
	val := bytes.Repeat([]byte("v"), 256)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "key:%08d", i)
		w.Set(keys[i], 0, 0, val)
	}
	batch := make([][]byte, 24)
	x := uint64(0x9E3779B97F4A7C15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			batch[j] = keys[x%nkeys]
		}
		for _, r := range w.GetMulti(batch) {
			if !r.Found {
				b.Fatal("miss")
			}
		}
	}
}
