package engine

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/race"
)

// The allocation ceilings of the request path. They hold on the production
// branch and on the lock baseline the ledger compares it with; the race
// detector's instrumentation allocates, so they are skipped under it.

func allocBranches() []Branch { return []Branch{ITOnCommit, Baseline} }

func TestAllocsGetHitInto(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, b := range allocBranches() {
		t.Run(b.String(), func(t *testing.T) {
			c := newTestCache(t, b)
			w := c.NewWorker()
			key, val := []byte("alloc-key"), bytes.Repeat([]byte("v"), 64)
			if res := w.Set(key, 7, 0, val); res != Stored {
				t.Fatalf("set: %v", res)
			}
			var buf GetBuf
			get := func() {
				got, flags, _, ok := w.GetInto(&buf, key)
				if !ok || flags != 7 || !bytes.Equal(got, val) {
					t.Fatalf("GetInto = %q, %d, %v", got, flags, ok)
				}
			}
			get() // warm-up: the arena and the transaction logs grow once
			if n := testing.AllocsPerRun(200, get); n > 1 {
				t.Errorf("GetInto hit: %.1f allocs/op, want <= 1", n)
			}
		})
	}
}

func TestAllocsGetMultiInto(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, b := range allocBranches() {
		t.Run(b.String(), func(t *testing.T) {
			c := New(Config{Branch: b, Shards: 2, MemLimit: 4 << 20, HashPower: 8, Stripes: 64})
			w := c.NewWorker()
			keys := make([][]byte, 24)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("multi-%02d", i))
				if res := w.Set(keys[i], uint32(i), 0, bytes.Repeat([]byte{byte('a' + i)}, 100)); res != Stored {
					t.Fatalf("set %d: %v", i, res)
				}
			}
			var buf GetBuf
			get := func() {
				res := w.GetMultiInto(&buf, keys)
				for i := range res {
					if !res[i].Found || res[i].Flags != uint32(i) || len(res[i].Value) != 100 || res[i].Value[0] != byte('a'+i) {
						t.Fatalf("result %d = %+v", i, res[i])
					}
				}
			}
			get()
			// The lock baseline takes the per-key path: 24 gets.
			if n := testing.AllocsPerRun(100, get); n > 1 {
				t.Errorf("GetMultiInto, 24 keys over 2 shards: %.1f allocs/op, want <= 1", n)
			}
		})
	}
}

// TestAllocsSetSteadyState: once a class's chunks exist a set allocates
// nothing, whether it replaces a key — the freed chunk is the next one handed
// out — or evicts one, where the eviction's sem_post to the rebalancer rides an
// onCommit handler (the cache is Automove).
func TestAllocsSetSteadyState(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	val := bytes.Repeat([]byte("v"), 64)
	for _, b := range allocBranches() {
		t.Run(b.String()+"/replace", func(t *testing.T) {
			c := newTestCache(t, b)
			w := c.NewWorker()
			key := []byte("alloc-key")
			set := func() {
				if res := w.Set(key, 0, 0, val); res != Stored {
					t.Fatalf("set: %v", res)
				}
			}
			set()
			set() // warm-up: the second chunk, the transaction logs
			if n := testing.AllocsPerRun(200, set); n != 0 {
				t.Errorf("replacing set: %.1f allocs/op, want 0", n)
			}
		})
		t.Run(b.String()+"/evict", func(t *testing.T) {
			c := New(Config{Branch: b, Shards: 1, MemLimit: 1 << 20, HashPower: 14, Stripes: 64, Automove: true})
			w := c.NewWorker()
			keys := make([][]byte, 20000)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("evict-%05d", i))
			}
			i := 0
			set := func() {
				if res := w.Set(keys[i%len(keys)], 0, 0, val); res != Stored {
					t.Fatalf("set %d: %v", i, res)
				}
				i++
			}
			for w.Stats().Evictions < 100 {
				set() // fill the one page the class gets, then warm the eviction path
			}
			before := w.Stats().Evictions
			if n := testing.AllocsPerRun(500, set); n != 0 {
				t.Errorf("evicting set: %.1f allocs/op, want 0", n)
			}
			if got := w.Stats().Evictions - before; got < 500 {
				t.Errorf("only %d of the measured sets evicted", got)
			}
		})
	}
}

// TestGetBatchArenaSurvivesRetry injects read aborts into batched gets, so
// that a body runs again after it has already copied values out: whatever the
// number of attempts, the arena must end up holding the committed attempt's
// values and nothing of the aborted ones'.
func TestGetBatchArenaSurvivesRetry(t *testing.T) {
	retried := 0
	for seed := uint64(1); seed <= 8; seed++ {
		in := fault.New(seed)
		in.Set(fault.STMReadAbort, 1.0/64) // a batch of 8 issues ~100 read barriers
		in.Disarm()
		c := New(Config{Branch: ITOnCommit, Shards: 1, MemLimit: 2 << 20, HashPower: 8, Fault: in})
		w := c.NewWorker()
		keys := make([][]byte, 8)
		want := 0
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("retry-%d", i))
			val := bytes.Repeat([]byte{byte('0' + i)}, 10+i)
			want += len(val)
			if res := w.Set(keys[i], 0, 0, val); res != Stored {
				t.Fatalf("set %d: %v", i, res)
			}
		}
		var buf GetBuf
		before := c.Runtime().Stats().Aborts
		in.Arm()
		res := w.GetMultiInto(&buf, keys)
		in.Disarm()
		if c.Runtime().Stats().Aborts > before {
			retried++
		}
		for i := range res {
			if !res[i].Found || !bytes.Equal(res[i].Value, bytes.Repeat([]byte{byte('0' + i)}, 10+i)) {
				t.Errorf("seed %d, key %d = %q, %v", seed, i, res[i].Value, res[i].Found)
			}
		}
		if len(buf.arena) != want {
			t.Errorf("seed %d: arena holds %d bytes, want the %d of the committed values", seed, len(buf.arena), want)
		}
	}
	if retried == 0 {
		t.Fatal("no seed aborted a batch: the test exercised nothing")
	}
}
