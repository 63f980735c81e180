//go:build linux

// Command benchmark is this repository's benchmark: five seeded closed-loop
// workloads driven over loopback TCP against the real cmd/memcached binary,
// end-to-end metrics measured with tracing off, and a separate traced run
// that replays the same command stream up a ladder of public entry points for
// per-layer numbers. See README.md in this directory and BENCHMARK.json at
// the repository root.
//
//	go run ./benchmark                          every workload, both runs
//	go run ./benchmark -workload hot_incr -short
//	go run ./benchmark -repeat 5 -out a.json
//	go run ./benchmark -compare a.json b.json
//
// The driver that gates pull requests runs
// `bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1` and
// reads the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units and
// directions (bench_test.go keeps the two in step) and adds the bounds.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
}

var endToEnd = []metricDef{
	{"ops_per_s", "1/s", true},
	{"lat_p50_us", "us", false},
	{"server_rss_mb", "MB", false},
	{"hit_ratio", "ratio", true},
	{"setup_s", "s", false},
}

var perLayer = []metricDef{
	{"stm.txn_floor_ro_ns", "ns", false},
	{"stm.txn_floor_rw_ns", "ns", false},
	{"stm.overhead_ns_per_op", "ns", false},
	{"stm.commits_per_op", "ratio", false},
	{"stm.aborts_per_commit", "ratio", false},
	{"stm.serial_per_kcommit", "ratio", false},
	{"stm.ro_fast_share", "ratio", true},
	{"engine.ns_per_op", "ns", false},
	{"engine.allocs_per_op", "count", false},
	{"engine.bytes_per_op", "B", false},
	{"engine.evictions_per_kset", "ratio", false},
	{"engine.slab_moves", "count", false},
	{"engine.hash_expansions", "count", false},
	{"engine.mem_amplification", "ratio", false},
	{"protocol.self_ns_per_op", "ns", false},
	{"protocol.allocs_per_op", "count", false},
	{"protocol.bytes_per_op", "B", false},
	{"protocol.flushes_per_op", "ratio", false},
	{"protocol.batched_reply_share", "ratio", true},
	{"protocol.writev_per_kop", "ratio", true},
	{"server.self_us_per_round", "us", false},
	{"server.io_syscalls_per_op", "ratio", false},
	{"server.burst_ops_mean", "count", true},
	{"server.dispatch_p99_us", "us", false},
	{"server.poller_wakeups_per_op", "ratio", false},
	{"server.overflow_spills", "count", false},
	{"server.threads", "count", false},
	// End-to-end numbers whose run-to-run spread on a 2-CPU host is too wide
	// to gate on: round latency p99, and child CPU time per command, which a
	// slow spell of the host inflates more than it does wall time.
	{"server.lat_p99_us", "us", false},
	{"server.cpu_us_per_op", "us", false},
	{"loadgen.cpu_share", "ratio", false},
	{"trace.overhead_ratio", "ratio", false},
}

// metricValue is one measured number, as the result file and the driver's
// result line carry it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run of one workload: the end-to-end run (Trace false) or
// the traced per-layer run (Trace true).
type runRecord struct {
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Repeat    int                    `json:"repeat"`
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	FirstFail string                 `json:"first_failure,omitempty"`
	Samples   int                    `json:"latency_samples"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// environment is recorded with every result: a number means nothing without
// the host and the commit it was taken on.
type environment struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Kernel     string  `json:"kernel"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Conns      int     `json:"connections"`
	Time       string  `json:"time"`
}

type resultFile struct {
	Env  environment `json:"env"`
	Runs []runRecord `json:"runs"`
}

func readEnv(seed uint64, seconds float64) environment {
	e := environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Kernel: "unknown", Seed: seed, Seconds: seconds, Conns: numConns,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	return e
}

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int // 0: end-to-end run only, 1: traced run only, -1: both
	repeat   int
	short    bool
	out      string
}

const outDir = "benchmark/out"

func main() { os.Exit(run()) }

func run() int {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated command streams")
	flag.Float64Var(&o.seconds, "seconds", 15, "measured time per run")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end run only, 1: traced per-layer run only, -1: both")
	flag.IntVar(&o.repeat, "repeat", 1, "run the whole set this many times and print medians, quartiles and spreads")
	flag.BoolVar(&o.short, "short", false, "2 s windows, one server instead of five and 20 000 traced ops, for iteration")
	flag.StringVar(&o.out, "out", filepath.Join(outDir, "result.json"), "where to write the result file")
	compare := flag.Bool("compare", false, "compare two result files: -compare parent.json change.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare parent.json change.json")
			return 2
		}
		return runCompare(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected arguments %q\n", flag.Args())
		return 2
	}
	if o.short {
		o.seconds = 2
	}
	specs := workloads
	if o.workload != "all" {
		sp := findWorkload(o.workload)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
			return 2
		}
		specs = []*spec{sp}
	}

	// Whatever ends the run — return, SIGINT, panic — no server outlives it.
	defer func() {
		if p := recover(); p != nil {
			killAll()
			panic(p)
		}
		killAll()
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()

	t0 := time.Now()
	bin, err := buildServer()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("built cmd/memcached in %.1fs\n", time.Since(t0).Seconds())

	file := resultFile{Env: readEnv(o.seed, o.seconds)}
	fmt.Printf("env: %d CPU, GOMAXPROCS %d, %s, kernel %s, commit %s, seed %d, %d connections\n",
		file.Env.NumCPU, file.Env.GOMAXPROCS, file.Env.GoVersion, file.Env.Kernel, file.Env.Commit, o.seed, file.Env.Conns)

	ok := true
	for rep := 1; rep <= o.repeat; rep++ {
		for _, sp := range specs {
			recs, err := runWorkload(sp, o, bin)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
				return 1
			}
			for _, rec := range recs {
				rec.Repeat = rep
				ok = ok && rec.Correct
				file.Runs = append(file.Runs, rec)
			}
		}
	}
	if o.repeat > 1 {
		printSummary(file.Runs)
	}
	if err := writeJSON(o.out, file); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println("result file:", o.out)

	// The driver's contract: one workload, one kind of run, and the result
	// as the last line of standard output.
	if len(file.Runs) == 1 {
		r := file.Runs[0]
		line, _ := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted uint64                 `json:"attempted"`
			Failed    uint64                 `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics})
		fmt.Println(string(line))
	}
	if !ok {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runWorkload does the end-to-end run, the traced run, or both, and prints
// every metric it measured by name with its unit.
func runWorkload(sp *spec, o options, bin string) ([]runRecord, error) {
	window := time.Duration(o.seconds * float64(time.Second))
	wo := wireOpts{seed: o.seed, instances: 5, window: window, warmup: 500 * time.Millisecond, bin: bin}
	traceOps := 200_000
	if o.short {
		wo.instances, traceOps = 1, 20_000
	}
	if sp.multi > 0 {
		traceOps /= sp.multi // a multi-get is one command but sp.multi lookups
	}
	var recs []runRecord

	if o.trace != 1 {
		fmt.Printf("\n== %s: end-to-end, seed %d, %d connections x depth %d, %d servers x (%.1fs warm-up + %.1fs window)\n",
			sp.name, o.seed, numConns, sp.depth, wo.instances, wo.warmup.Seconds(), o.seconds/float64(wo.instances))
		w, err := runWire(sp, wo)
		if err != nil {
			return nil, err
		}
		rec := newRecord(sp, false, w.tally, w.rounds)
		for _, d := range endToEnd {
			rec.Metrics[d.name] = metricValue{w.endToEnd(d.name), d.unit}
		}
		rec.print(endToEnd)
		recs = append(recs, rec)
	}

	if o.trace != 0 {
		// The counters come from the same load against the child, over a
		// shorter window (they are ratios, not rates); the ladder runs in
		// this process.
		wo.window, wo.instances, wo.scrape = window/2, 1, true
		fmt.Printf("\n== %s: per-layer, seed %d, server counters over a %.0fs window, then %d ops up the ladder\n",
			sp.name, o.seed, wo.window.Seconds(), traceOps)
		w, err := runWire(sp, wo)
		if err != nil {
			return nil, err
		}
		l, tr, err := runLadder(sp, o.seed, traceOps)
		if err != nil {
			return nil, err
		}
		path, err := writeTrace(outDir, sp, o.seed, l, tr)
		if err != nil {
			return nil, err
		}
		t := w.tally
		t.add(l.tally)
		rec := newRecord(sp, true, t, w.rounds)
		for _, d := range perLayer {
			rec.Metrics[d.name] = metricValue{layerMetric(d.name, w, l), d.unit}
		}
		rec.print(perLayer)
		printLadder(sp, l)
		fmt.Println("  spans:", path)
		recs = append(recs, rec)
	}
	return recs, nil
}

func newRecord(sp *spec, trace bool, t tally, samples int) runRecord {
	return runRecord{
		Workload: sp.name, Trace: trace, Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		FirstFail: t.firstFail, Samples: samples, Metrics: map[string]metricValue{},
	}
}

func (r runRecord) print(defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("  %-30s %14.4f %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	fmt.Printf("  %-30s %14.6f ratio (%d failed of %d commands)\n", "fail_ratio",
		float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)
	fmt.Printf("  %-30s %14d rounds\n", "latency_samples", r.Samples)
	if r.FirstFail != "" {
		fmt.Println("  first failure:", r.FirstFail)
	}
}

func (w *wireResult) endToEnd(name string) float64 {
	switch name {
	case "ops_per_s":
		return w.opsPerS
	case "lat_p50_us":
		return w.p50us
	case "server_rss_mb":
		return w.rssMB
	case "hit_ratio":
		return w.hit
	case "setup_s":
		return w.setupS
	}
	panic("benchmark: no end-to-end metric " + name)
}

// layerMetric computes one per-layer metric from the counter run against the
// child (w) and the ladder (l).
func layerMetric(name string, w *wireResult, l *ladderResult) float64 {
	ops := float64(w.ops)
	d := w.delta
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	commits := d["tm_transactions"]
	switch name {
	case "stm.txn_floor_ro_ns":
		return l.floorRO
	case "stm.txn_floor_rw_ns":
		return l.floorRW
	case "stm.overhead_ns_per_op":
		return l.rungNs[layerEngine] - l.baselineNs
	case "stm.commits_per_op":
		return per(commits, ops)
	case "stm.aborts_per_commit":
		return per(d["tm_aborts"], commits)
	case "stm.serial_per_kcommit":
		return per(1000*(d["tm_inflight_switch"]+d["tm_start_serial"]+d["tm_abort_serial"]), commits)
	case "stm.ro_fast_share":
		return per(d["tm_ro_fast_commit"], commits)
	case "engine.ns_per_op":
		return l.rungNs[layerEngine]
	case "engine.allocs_per_op":
		return l.engineAllocs
	case "engine.bytes_per_op":
		return l.engineBytes
	case "engine.evictions_per_kset":
		return per(1000*d["evictions"], d["cmd_set"])
	case "engine.slab_moves":
		return d["slabs_moved"]
	case "engine.hash_expansions":
		return d["hash_expansions"]
	case "engine.mem_amplification":
		return per(w.rssMB*(1<<20), w.end["bytes"])
	case "protocol.self_ns_per_op":
		return l.selfNs[layerProtocol]
	case "protocol.allocs_per_op":
		return l.protoAllocs
	case "protocol.bytes_per_op":
		return l.protoBytes
	case "protocol.flushes_per_op":
		return per(d["conn_flushes"], ops)
	case "protocol.batched_reply_share":
		return per(d["conn_batched_replies"], ops)
	case "protocol.writev_per_kop":
		return per(1000*d["conn_writev_batches"], ops)
	case "server.self_us_per_round":
		return l.selfNs[layerServer] / 1e3
	case "server.io_syscalls_per_op":
		return per(d["io.syscr"]+d["io.syscw"], ops)
	case "server.burst_ops_mean":
		return w.end["burst_ops.mean"]
	case "server.dispatch_p99_us":
		return w.end["dispatch_ns.p99_ns"] / 1e3
	case "server.poller_wakeups_per_op":
		return per(d["poller_wakeups"], ops)
	case "server.overflow_spills":
		return d["event_overflow_spills"]
	case "server.threads":
		return w.threads
	case "server.lat_p99_us":
		return w.p99us
	case "server.cpu_us_per_op":
		return w.cpuUsOp
	case "loadgen.cpu_share":
		return w.loadgenCPU
	case "trace.overhead_ratio":
		return l.traceRatio
	}
	panic("benchmark: no per-layer metric " + name)
}

// printLadder prints the self-time decomposition the per-layer predictions
// are checked against.
func printLadder(sp *spec, l *ladderResult) {
	fmt.Printf("  ladder, %d ops (%d server rounds): mean span / self time per call\n", l.ops, l.rounds)
	for lay := layerSTM; lay < numLayers; lay++ {
		fmt.Printf("    %-9s %10.0f ns %10.0f ns self\n", layerNames[lay], l.rungNs[lay], l.selfNs[lay])
	}
	below := l.selfNs[layerSTM] + l.selfNs[layerEngine] + l.selfNs[layerProtocol]
	fmt.Printf("    per op: stm+engine+protocol %.0f ns, server %.0f ns (round of %d)\n",
		below, l.selfNs[layerServer]/float64(sp.depth), sp.depth)
}
