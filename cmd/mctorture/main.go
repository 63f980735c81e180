// mctorture runs seeded fault-injection torture schedules against the cache
// and checks it against a sequential model. Every failure report embeds the
// seed, so any red run reproduces exactly:
//
//	mctorture -branch it-oncommit -seed 42
//	mctorture -branch all -runs 3          # 3 seeds across all 14 branches
//	mctorture -branch ip -net              # through the TCP front end
//	mctorture -branch it-max -txn -shards 4  # cross-shard wire-transaction conservation
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/engine"
	"repro/internal/torture"
)

func main() {
	branch := flag.String("branch", "it-oncommit", "branch to torture (see -branch help), or 'all'")
	seed := flag.Uint64("seed", 1, "first schedule seed")
	runs := flag.Int("runs", 1, "number of consecutive seeds per branch")
	netMode := flag.Bool("net", false, "drive ops through the TCP front end with transport faults")
	txnMode := flag.Bool("txn", false, "concurrent cross-shard wire-transaction transfers; checks a conserved global invariant (IT-family branches only, others are skipped)")
	short := flag.Bool("short", false, "shrunken schedules (smoke mode)")
	workers := flag.Int("workers", 0, "chaos workers (0 = default)")
	ops := flag.Int("ops", 0, "phase-A ops per worker (0 = default)")
	stable := flag.Int("stable", 0, "phase-B stable keys (0 = default)")
	rate := flag.Float64("rate", 0, "max per-point fault rate (0 = default 0.02)")
	shards := flag.Int("shards", 0, "TM domains to shard the cache into (0 = single domain)")
	verbose := flag.Bool("v", false, "print the fault schedule summary for green runs too")
	flag.Parse()

	var branches []engine.Branch
	if *branch == "all" {
		branches = engine.Branches()
	} else {
		b, err := engine.ParseBranch(*branch)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		branches = []engine.Branch{b}
	}

	failed := false
	for _, b := range branches {
		for s := *seed; s < *seed+uint64(*runs); s++ {
			cfg := torture.Config{
				Branch:     b,
				Seed:       s,
				Shards:     *shards,
				Workers:    *workers,
				Ops:        *ops,
				StableKeys: *stable,
				MaxRate:    *rate,
				Short:      *short,
			}
			var rep *torture.Report
			switch {
			case *txnMode:
				probe := engine.New(engine.Config{Branch: b, Shards: 2, HashPower: 8})
				if !probe.TxSupported() {
					fmt.Printf("torture %s: skipped (-txn needs wire-transaction support)\n", b)
					continue
				}
				rep = torture.RunTxn(cfg)
			case *netMode:
				rep = torture.RunNetwork(cfg)
			default:
				rep = torture.Run(cfg)
			}
			if rep.Failed() {
				failed = true
				fmt.Print(rep.String())
			} else {
				fmt.Println(rep.String())
				if *verbose {
					fmt.Print(rep.Faults)
				}
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}
