package torture

import (
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
)

// recycleChurn fills RunRecycle's two pages in a few hundred stores: values of
// two slab classes, some 260 chunks in all, for 2000 keys.
var recycleChurn = churn{keys: 2000, valMin: 6000, valSpan: 1500}

// hangAfter is how long RunRecycle gives its workers: a run takes under a
// second, 4 to 8 s under -race on one CPU.
const hangAfter = 2 * time.Minute

// RunRecycle is the chunk-reuse run: the chaos phase alone, with values of
// 6-7 KiB against a cache of two pages, so that after the first few hundred
// stores every allocation evicts and every chunk a worker fills is
// one another key just left — while gets, multi-get batches (which hold no
// reference on what they read) or wire transactions (which allocate inside a
// transaction) read the same keys under the STM and slab fault schedule.
// Every reply is verified against its key; the run ends in
// engine.ValidateQuiescent, whose chunk-ownership walk finds a chunk lost,
// freed twice or linked under a key it no longer holds.
//
// Fault rates are per barrier and a 16-key batch of these values is some
// 15 000 read barriers, so the ceiling for the two read-barrier points
// (MaxRate, default 1e-4) is far below Run's: at 2 % no batch would ever
// commit, and a NoLock branch (no contention manager, no serial fallback)
// would retry forever. Every other point gets 10 times that: an allocating
// section is some 40 write barriers, and it is the aborted ones that show
// whether a chunk was touched before its allocation was final.
func RunRecycle(cfg Config) *Report {
	if cfg.Short {
		if cfg.Workers == 0 {
			cfg.Workers = 2
		}
		if cfg.Ops == 0 {
			cfg.Ops = 1500
		}
	}
	if cfg.Ops == 0 {
		cfg.Ops = 2500
	}
	if cfg.MemLimit == 0 {
		cfg.MemLimit = 2 << 20
	}
	if cfg.MaxRate == 0 {
		cfg.MaxRate = 1e-4
	}
	cfg = cfg.withDefaults()
	start := time.Now()
	rep := &Report{Branch: cfg.Branch, Seed: cfg.Seed}

	points := append(fault.StmPoints(), fault.EnginePoints()...)
	in := fault.RandomSchedule(cfg.Seed, points, 10*cfg.MaxRate)
	for _, p := range []fault.Point{fault.STMReadAbort, fault.STMReadDelay} {
		in.Set(p, in.Rate(p)/10)
	}
	cache := engine.New(engine.Config{
		Branch:    cfg.Branch,
		Shards:    cfg.Shards,
		MemLimit:  cfg.MemLimit,
		HashPower: cfg.HashPower,
		Automove:  true,
		Fault:     in,
		Watchdog:  2 * time.Millisecond,
	})
	if cfg.Prepare != nil {
		cfg.Prepare(cache)
	}
	if cfg.Mix == MixTxn && !cache.TxSupported() {
		rep.violatef("branch %s does not support wire transactions", cfg.Branch)
		return rep
	}
	cache.Start()
	in.Arm()

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			chaosWorker(cache.NewWorker(), cfg, recycleChurn, id, rep)
		}(w)
	}
	// A reader following links through a damaged table may never return; that
	// is a violation with a seed too, not a test binary killed by its timeout.
	// The cache is left to them: Stop would wait on the same damage.
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(hangAfter):
		rep.violatef("chaos workers still running after %v", hangAfter)
		return rep
	}
	in.Disarm()

	if ev := cache.NewWorker().Stats().Evictions; ev < uint64(cfg.Ops/20) {
		// Not a cache bug, a harness bug: chunks were hardly ever reused.
		rep.violatef("only %d evictions; run tested nothing (lower MemLimit or raise Ops)", ev)
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
