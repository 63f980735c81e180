package torture

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
)

// RunTxn is the wire-transaction variant of Run: concurrent cross-shard
// transfers under a seeded fault schedule, checked against a conserved global
// invariant. A fixed set of accounts spread over at least two TM domains is
// seeded with a known number of units; workers then move units between random
// accounts with validated transactions (read both balances with their CAS,
// commit TxDecr/TxIncr through the N-domain ordered commit). A transfer only
// commits if every read validates, so a committed TxDecr can never saturate
// at zero: the validated balance is by definition still current at apply
// time. When the dust settles the units must all still be there — a torn
// cross-shard commit (one domain applied, the other not) shows up as a
// wrong total.
//
// All STM and maintenance fault points stay armed for the whole transfer
// phase. Slab allocation failure is the one exception, disabled for the same
// reason phase B of Run disables it: the apply phase of a commit is
// irrevocable, so a refused allocation inside it (an incr whose value text
// outgrows its chunk) surfaces as a per-op failure by design — which the
// conservation check could not tell apart from the lost-units bug it exists
// to catch. Run covers allocation failure; this run covers atomicity.
//
// The check phase also requires cross_shard_orec_conflicts == 0: the ordered
// commit acquires whole serial domains and must never let two shards meet on
// a single orec.
func RunTxn(cfg Config) *Report {
	if cfg.Shards < 2 {
		cfg.Shards = 2 // the subject under test is the cross-shard commit
	}
	cfg = cfg.withDefaults()
	start := time.Now()
	rep := &Report{Branch: cfg.Branch, Seed: cfg.Seed}

	points := append(fault.StmPoints(), fault.EnginePoints()...)
	in := fault.RandomSchedule(cfg.Seed, points, cfg.MaxRate)
	in.Set(fault.SlabAllocFail, 0)

	cache := engine.New(engine.Config{
		Branch:    cfg.Branch,
		Shards:    cfg.Shards,
		MemLimit:  cfg.MemLimit,
		HashPower: cfg.HashPower,
		Automove:  true,
		Fault:     in,
		Watchdog:  2 * time.Millisecond,
	})
	cache.Start()
	if !cache.TxSupported() {
		rep.violatef("branch %s does not support wire transactions", cfg.Branch)
		cache.Stop()
		return rep
	}
	obs := cache.EnableTracing()

	// Seed the ledger before arming faults: the invariant is defined by what
	// was acknowledged, and an alloc-refused seed store would just shrink the
	// run, not test anything.
	const perAccount = 1_000_000
	accounts := make([][]byte, 8*cfg.Shards)
	wk := cache.NewWorker()
	shardsSeen := map[int]bool{}
	for i := range accounts {
		accounts[i] = []byte(fmt.Sprintf("acct-%03d", i))
		if wk.Set(accounts[i], 0, 0, []byte(strconv.Itoa(perAccount))) != engine.Stored {
			rep.violatef("seeding account %s refused with faults disarmed", accounts[i])
			cache.Stop()
			return rep
		}
		shardsSeen[cache.ShardOf(accounts[i])] = true
	}
	if len(shardsSeen) < 2 {
		// Not a cache bug, a harness bug: every transfer would be single-shard
		// and the run would never exercise the ordered commit.
		rep.violatef("accounts landed on %d shard(s); cross-shard commit untested", len(shardsSeen))
		cache.Stop()
		return rep
	}

	in.Arm()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			txnTransferWorker(cache.NewWorker(), cfg, accounts, id)
		}(w)
	}
	wg.Wait()
	in.Disarm()

	// Check phase: conservation, counters, domain independence, structure.
	waitExpansion(wk, rep)
	var total uint64
	for _, acct := range accounts {
		v, _, _, ok := wk.Get(acct)
		if !ok {
			rep.violatef("account %s vanished", acct)
			continue
		}
		n, err := strconv.ParseUint(string(v), 10, 64)
		if err != nil {
			rep.violatef("account %s corrupted to %q", acct, v)
			continue
		}
		total += n
	}
	if want := uint64(len(accounts)) * perAccount; total != want {
		rep.violatef("units not conserved: ledger sums to %d, want %d (%+d)",
			total, want, int64(total)-int64(want))
	}

	s := wk.Stats()
	rep.TxCommits = s.TxCommits
	rep.TxConflicts = s.TxConflicts
	if s.TxCommits == 0 {
		rep.violatef("no wire transaction committed; run tested nothing")
	}
	if n := obs.CrossShardOrecConflicts(); n != 0 {
		rep.violatef("cross_shard_orec_conflicts = %d, want 0: shard domains shared an orec", n)
	}

	cache.Stop()
	if err := cache.ValidateQuiescent(); err != nil {
		rep.violatef("structural validation: %v", err)
	}

	rep.FaultsFired = in.TotalFired()
	rep.Faults = in.Summary()
	rep.Elapsed = time.Since(start)
	return rep
}

// txnTransferWorker issues cfg.Ops validated transfers between random
// accounts. A conflicted or per-op-failed transfer simply doesn't move units
// — both outcomes leave the ledger sum intact, which is the point. Every
// fourth transfer splits across two destinations so the commit spans up to
// three serial domains, not just the two-domain common case.
func txnTransferWorker(wk *engine.Worker, cfg Config, accounts [][]byte, id int) {
	rng := rngState(cfg.Seed, uint64(id)+0x7AB5)
	n := uint64(len(accounts))
	for op := 0; op < cfg.Ops; op++ {
		r := rng.next()
		from := accounts[r%n]
		to := accounts[(r>>16)%n]
		if string(from) == string(to) {
			continue
		}
		amount := 1 + r>>32%5

		vF, _, casF, okF := wk.Get(from)
		_, _, casT, okT := wk.Get(to)
		if !okF || !okT {
			continue // account under churn elsewhere; next iteration
		}
		bal, err := strconv.ParseUint(string(vF), 10, 64)
		if err != nil || bal < 2*amount {
			continue
		}
		reads := []engine.TxRead{{Key: from, CAS: casF}, {Key: to, CAS: casT}}
		ops := []engine.TxOp{
			{Kind: engine.TxDecr, Key: from, Delta: amount},
			{Kind: engine.TxIncr, Key: to, Delta: amount},
		}
		if r>>48%4 == 0 {
			to2 := accounts[(r>>24)%n]
			if string(to2) != string(from) && string(to2) != string(to) {
				_, _, cas2, ok2 := wk.Get(to2)
				if ok2 {
					reads = append(reads, engine.TxRead{Key: to2, CAS: cas2})
					ops[0].Delta = 2 * amount
					ops = append(ops, engine.TxOp{Kind: engine.TxIncr, Key: to2, Delta: amount})
				}
			}
		}
		wk.CommitTx(reads, ops)
	}
}
