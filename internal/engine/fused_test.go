package engine

import (
	"fmt"
	"sync"
	"testing"
)

// TestFusedGetCorrectness runs fused gets — no refcount pair, the copy-out
// revalidated at commit — against concurrent sets and deletes on the branches
// that fuse, then checks that every linked item still answers and that the
// refcounts balance exactly (gets took none).
func TestFusedGetCorrectness(t *testing.T) {
	for _, b := range []Branch{ITOnCommit, ITNoLock} {
		t.Run(b.String(), func(t *testing.T) {
			c := New(Config{
				Branch:    b,
				MemLimit:  2 << 20,
				HashPower: 8,
				Automove:  true,
			})
			c.Start()
			defer c.Stop()
			if !c.shard0().fused {
				t.Fatalf("%v does not fuse", b)
			}

			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					w := c.NewWorker()
					for i := 0; i < 600; i++ {
						key := []byte(fmt.Sprintf("ro-%d", (g*13+i)%100))
						if i%8 == 0 {
							w.Set(key, 1, 0, []byte(fmt.Sprintf("v-%d-%d", g, i)))
						} else if i%17 == 0 {
							w.Delete(key)
						} else if val, _, _, ok := w.Get(key); ok && len(val) < 2 {
							t.Errorf("suspicious value %q", val)
						}
					}
				}()
			}
			wg.Wait()

			w := c.NewWorker()
			live := 0
			for i := 0; i < 100; i++ {
				if _, _, _, ok := w.Get([]byte(fmt.Sprintf("ro-%d", i))); ok {
					live++
				}
			}
			if s := w.Stats(); int(s.CurrItems) != live {
				t.Errorf("CurrItems = %d, live = %d", s.CurrItems, live)
			}
			if err := c.ValidateQuiescent(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestFusedOnlyWhereEverySectionIsAtomic: commands fuse on the IT branches at
// stage onCommit and nowhere else — IP gets keep their refcounts (their data
// access is privatized, not transactional), and a branch with a relaxed
// section cannot nest it in an atomic one — and Config.PaperSections turns
// fusing off everywhere.
func TestFusedOnlyWhereEverySectionIsAtomic(t *testing.T) {
	for _, b := range Branches() {
		for _, paper := range []bool{false, true} {
			c := New(Config{Branch: b, Shards: 1, HashPower: 8, PaperSections: paper})
			want := (b == ITOnCommit || b == ITNoLock) && !paper
			if got := c.shard0().fused; got != want {
				t.Errorf("%v PaperSections=%v: fused = %v, want %v", b, paper, got, want)
			}
			c.Start()
			w := c.NewWorker()
			w.Set([]byte("k"), 0, 0, []byte("v"))
			if _, _, _, ok := w.Get([]byte("k")); !ok {
				t.Errorf("%v PaperSections=%v: basic get broken", b, paper)
			}
			c.Stop()
		}
	}
}

// TestCommitsPerCommand pins how many transactions each command commits on
// it-oncommit, fused and with the paper's sections: the count the benchmark
// reports as stm.commits_per_op, here exact. One worker on a cache that was
// never started, so no clock tick or maintenance thread commits anything, and
// every entry is younger than touchInterval, so no get bumps the LRU.
func TestCommitsPerCommand(t *testing.T) {
	type step struct {
		name         string
		run          func(w *Worker)
		fused, paper uint64
		roFast       uint64 // read-only fast-path commits, fused
	}
	keys16 := make([][]byte, MultiGetBatch)
	for i := range keys16 {
		keys16[i] = fmt.Appendf(nil, "m%02d", i)
	}
	steps := []step{
		{"set new", func(w *Worker) { w.Set([]byte("k"), 0, 0, []byte("value")) }, 2, 5, 0},
		{"set replace", func(w *Worker) { w.Set([]byte("k"), 0, 0, []byte("other")) }, 2, 5, 0},
		{"get hit", func(w *Worker) { w.Get([]byte("k")) }, 1, 5, 1},
		{"get miss", func(w *Worker) { w.Get([]byte("absent")) }, 1, 4, 1},
		{"16-key group", func(w *Worker) { w.GetMulti(keys16) }, 1, 4, 1},
		{"gat", func(w *Worker) { w.GetAndTouch([]byte("k"), 0) }, 1, 5, 0},
		{"cas mismatch", func(w *Worker) { w.CAS([]byte("k"), 0, 0, []byte("x"), 1) }, 2, 5, 0},
		{"incr in place", func(w *Worker) { w.Incr([]byte("n"), 1) }, 1, 4, 0},
		{"touch", func(w *Worker) { w.Touch([]byte("k"), 0) }, 1, 4, 0},
		{"delete", func(w *Worker) { w.Delete([]byte("k")) }, 1, 4, 0},
	}
	for _, paper := range []bool{false, true} {
		t.Run(fmt.Sprintf("PaperSections=%v", paper), func(t *testing.T) {
			c := New(Config{Branch: ITOnCommit, Shards: 1, HashPower: 8, MemLimit: 2 << 20, PaperSections: paper})
			w := c.NewWorker()
			for i, k := range keys16 {
				if i%2 == 0 {
					w.Set(k, 0, 0, []byte("v"))
				}
			}
			w.Set([]byte("n"), 0, 0, []byte("10"))
			rt := c.Runtime()
			for _, s := range steps {
				before := rt.Stats()
				s.run(w)
				d := rt.Stats().Sub(before)
				want := s.fused
				if paper {
					want = s.paper
				}
				if d.Commits != want || d.Aborts != 0 {
					t.Errorf("%s: %d commits, %d aborts, want %d, 0", s.name, d.Commits, d.Aborts, want)
				}
				if !paper && d.ROFastCommits != s.roFast {
					t.Errorf("%s: %d read-only fast commits, want %d", s.name, d.ROFastCommits, s.roFast)
				}
			}
		})
	}
}

// TestStatsExactAfterReset: after a quiescent stats reset, every command
// counter is exactly what the commands since did — cas_badval included, which
// is counted once per refused cas after the store section commits — on every
// branch, fused and with the paper's sections.
func TestStatsExactAfterReset(t *testing.T) {
	for _, paper := range []bool{false, true} {
		for _, b := range Branches() {
			t.Run(fmt.Sprintf("%v/PaperSections=%v", b, paper), func(t *testing.T) {
				c := New(Config{Branch: b, Shards: 2, HashPower: 8, MemLimit: 2 << 20, PaperSections: paper})
				c.Start()
				defer c.Stop()
				w := c.NewWorker()
				for i := 0; i < 8; i++ {
					w.Set(fmt.Appendf(nil, "pre-%d", i), 0, 0, []byte("v"))
					w.Get(fmt.Appendf(nil, "pre-%d", i))
				}
				w.ResetStats()

				w.Set([]byte("a"), 0, 0, []byte("1"))
				_, _, cas, _ := w.Get([]byte("a"))
				w.Get([]byte("absent"))
				w.GetMulti([][]byte{[]byte("a"), []byte("absent"), []byte("pre-1")})
				w.CAS([]byte("a"), 0, 0, []byte("2"), cas+1000) // EXISTS
				w.CAS([]byte("a"), 0, 0, []byte("2"), cas)      // STORED
				w.CAS([]byte("absent"), 0, 0, []byte("2"), cas) // NOT_FOUND
				w.Incr([]byte("a"), 5)
				w.Incr([]byte("absent"), 5)
				w.Touch([]byte("a"), 0)
				w.Delete([]byte("a"))
				w.Delete([]byte("absent"))

				s := w.Stats()
				got := [...]uint64{s.GetCmds, s.GetHits, s.GetMisses, s.SetCmds, s.CasHits, s.CasMiss, s.CasBadval,
					s.IncrHits, s.IncrMiss, s.TouchCmds, s.DeleteHits, s.DeleteMiss}
				want := [...]uint64{5, 3, 2, 4, 1, 1, 1, 1, 1, 1, 1, 1}
				if got != want {
					t.Errorf("get cmd/hit/miss, set, cas hit/miss/badval, incr hit/miss, touch, delete hit/miss = %v, want %v", got, want)
				}
			})
		}
	}
}

// TestStatsResetRacesFusedCommands runs stats reset against fused gets and
// wire-transaction sets (whose counts land from an onCommit handler) on the
// same per-thread blocks: the race detector must stay quiet, and once the
// writers stop a reset still leaves exact counts.
func TestStatsResetRacesFusedCommands(t *testing.T) {
	c := New(Config{Branch: ITOnCommit, Shards: 2, HashPower: 8, MemLimit: 2 << 20})
	c.Start()
	defer c.Stop()
	if !c.TxSupported() {
		t.Fatal("it-oncommit serves no wire transactions")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	workers := make([]*Worker, 3)
	for g := range workers {
		workers[g] = c.NewWorker()
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Appendf(nil, "r-%d", i%32)
				if g == 0 {
					w.CommitTx(nil, []TxOp{{Kind: TxSet, Key: key, Value: []byte("v")}})
				} else {
					w.Get(key)
				}
			}
		}(workers[g])
	}
	resetter := c.NewWorker()
	for i := 0; i < 200; i++ {
		resetter.ResetStats()
		resetter.Stats()
	}
	close(stop)
	wg.Wait()

	resetter.ResetStats()
	workers[0].CommitTx(nil, []TxOp{{Kind: TxSet, Key: []byte("r-0"), Value: []byte("v")}, {Kind: TxSet, Key: []byte("r-1"), Value: []byte("v")}})
	workers[1].Get([]byte("r-0"))
	workers[2].Get([]byte("absent"))
	s := resetter.Stats()
	if s.SetCmds != 2 || s.GetCmds != 2 || s.GetHits != 1 || s.GetMisses != 1 {
		t.Errorf("after a quiescent reset: set %d, get %d (hits %d, misses %d), want 2, 2 (1, 1)", s.SetCmds, s.GetCmds, s.GetHits, s.GetMisses)
	}
}
