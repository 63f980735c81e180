// Command mcbench regenerates the paper's figures and tables, and runs the
// experiments behind every claim this repository makes beyond them.
//
//	mcbench -all                 # every figure and table, scaled-down defaults
//	mcbench -fig 9               # one figure
//	mcbench -table 1             # one table
//	mcbench -ratios              # the §4 abort-ratio quotes
//	mcbench -profile it-oncommit # one branch with transaction observability on
//	mcbench -all -ops 625000 -threads 1,2,4,8,12 -trials 5   # paper scale
//
//	mcbench -exp all             # shards, trace-overhead, fingerprint-overhead,
//	mcbench -exp shards,txn      # tmctl-storm, txn, conns -> BENCH_experiments.json
//
// Experiments take no sizing flags: their sizes are constants in the table
// (internal/bench/experiments.go), so a recorded number names its workload.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/engine"
)

func main() {
	// The conns experiment re-executes this binary to hold its idle
	// connections in a process with its own descriptor limit.
	if len(os.Args) > 1 && os.Args[1] == "conns-agent" {
		if err := bench.ConnAgent(os.Args[2:]); err != nil {
			log.Fatal(err)
		}
		return
	}
	var (
		figID      = flag.Int("fig", 0, "figure to reproduce (4, 6, 8, 9, 10, 11)")
		tableID    = flag.Int("table", 0, "table to reproduce (1-4)")
		all        = flag.Bool("all", false, "reproduce every figure and table")
		ratios     = flag.Bool("ratios", false, "report the §4 abort ratios")
		profBranch = flag.String("profile", "", "run one branch with tracing on and print the full observability report: causes, conflict heat map, latency (§6 tooling)")
		ops        = flag.Int("ops", 20000, "operations per thread (paper: 625000)")
		threads    = flag.String("threads", "1,2,4,8,12", "comma-separated thread counts")
		trials     = flag.Int("trials", 1, "trials per point, averaged (paper: 5)")
		keyspace   = flag.Int("keyspace", 4096, "distinct keys")
		vsize      = flag.Int("value-size", 1024, "value size")
		zipf       = flag.Bool("zipf", false, "Zipf-skewed key popularity (exploratory; the paper is uniform)")
		exp        = flag.String("exp", "", "experiments to run, comma-separated, or all: "+strings.Join(bench.ExperimentNames(), ", "))
		out        = flag.String("out", "BENCH_experiments.json", "file -exp records results in (entries of experiments not run are kept)")
	)
	flag.Parse()

	var ths []int
	for _, part := range strings.Split(*threads, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			log.Fatalf("bad -threads %q", *threads)
		}
		ths = append(ths, n)
	}
	o := bench.Options{
		Threads:      ths,
		OpsPerThread: *ops,
		Trials:       *trials,
		KeySpace:     *keyspace,
		ValueSize:    *vsize,
		Zipf:         *zipf,
	}

	showFig := func(id int) {
		fig, err := bench.RunFigure(id, o)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(fig)
	}
	showTable := func(id int) {
		tab, err := bench.RunTable(id, o)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tab)
	}
	showRatios := func() {
		fmt.Printf("§4 abort ratios at %d threads:\n", ths[len(ths)-1])
		for _, r := range bench.RunRatios(o) {
			fmt.Printf("  %-14s %6.2f aborts/commit   abort-rate variance %.5f\n",
				r.Label, r.AbortsPerCommit, r.RateVariance)
		}
		fmt.Println()
	}

	ran := false
	if *all {
		ran = true
		for _, id := range []int{4, 6, 8, 9, 10, 11} {
			showFig(id)
		}
		for _, id := range []int{1, 2, 3, 4} {
			showTable(id)
		}
		showRatios()
	}
	if *figID != 0 {
		ran = true
		showFig(*figID)
	}
	if *tableID != 0 {
		ran = true
		showTable(*tableID)
	}
	if *ratios && !*all {
		ran = true
		showRatios()
	}
	if *exp != "" {
		ran = true
		if err := bench.RunExperiments(strings.Split(*exp, ","), *out); err != nil {
			log.Fatal(err)
		}
	}
	if *profBranch != "" {
		ran = true
		b, err := engine.ParseBranch(*profBranch)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := bench.RunProfiled(b, ths[len(ths)-1], o)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("branch %s at %d threads:\n%s", b, ths[len(ths)-1], rep)
	}
	if !ran {
		flag.Usage()
	}
}
