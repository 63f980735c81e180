package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
)

// The experiment runner. Everything beyond the paper's own figures and tables
// is measured by one loop, the way the paper measures every stage with one
// harness: an experiment is a row of the table in experiments.go — a claim, a
// list of configurations ("points") and the per-thread load each one runs —
// and this file owns what every experiment needs done the same way: the
// environment block, cache construction and prefill, thread fan-out, counter
// deltas and shard balance, round-robin-interleaved trials with a measured
// noise floor, and the one result schema written to BENCH_experiments.json.

// Env says where a result was measured. Numbers from hosts that disagree on
// it are not comparable.
type Env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// Metrics maps a metric name to a number, a per-shard array of numbers, or
// (for verdicts such as a skip reason) a string or bool.
type Metrics = map[string]any

// Row is one measured configuration.
type Row struct {
	Label   string  `json:"label"`
	Params  Metrics `json:"params"`
	Metrics Metrics `json:"metrics"`
}

// Result is the one schema every experiment reports in.
type Result struct {
	Env        Env    `json:"env"`
	Experiment string `json:"experiment"`
	Claim      string `json:"claim"`
	// NoiseFloor is the relative difference in median ops/s between the
	// reference point (rows[0]) and an identical twin measured alongside it:
	// what this host reports as a change when nothing changed. A vs_ref
	// closer to 1 than this is not an effect.
	NoiseFloor float64   `json:"noise_floor"`
	Rows       []Row     `json:"rows"`
	Series     []Metrics `json:"series,omitempty"`
}

// experiment is one entry of the table.
type experiment struct {
	name, claim string
	threads     int // load goroutines per trial
	ops         int // operations (groups, requests, transactions) per thread per trial
	trials      int // timed rounds; one more round, untimed, warms the process up
	keyspace    int // memslap-format keys prefilled before every trial
	valueSize   int
	points      []point // points[0] is the reference every vs_ref is taken against
	// extra, when set, adds rows that are not throughput trials (the idle
	// connection ladder) after the interleaved ones.
	extra func(e *experiment, res *Result) error
}

// point is one configuration of an experiment: how to build what is measured
// and what each thread does to it.
type point struct {
	label  string
	params Metrics
	cache  engine.Config
	listen *server.Config // non-nil: serve the cache on loopback; loads dial rig.addr
	// prep runs once per trial after the prefill (seed extra keys, switch a
	// telemetry layer on).
	prep func(r *rig)
	// load is the per-thread closure of the default trial: run r.ops
	// operations as thread t, return how many were done.
	load func(r *rig, t int, w *engine.Worker) uint64
	// trial replaces the default fan-out of load for a point that drives
	// threads and a sampler itself (the contention storm).
	trial func(r *rig) sample
	// verify runs after the clock stops and adds to the trial's metrics what
	// is not a counter delta (cross-shard conflicts, ledger drift, latency
	// quantiles).
	verify func(r *rig, m Metrics)
}

// rig is one trial's live state.
type rig struct {
	e     *experiment
	c     *engine.Cache
	addr  string // listen address when the point serves over loopback
	ops   int    // per-thread operations; verification passes shrink it
	state any    // whatever prep built for load
	lat   latSink

	mu  sync.Mutex
	err error
}

// fail records a load error; the runner aborts the experiment after the trial.
func (r *rig) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// fanOut runs load on e.threads goroutines, each with its own worker, and
// returns the operations they completed.
func (r *rig) fanOut(load func(r *rig, t int, w *engine.Worker) uint64) uint64 {
	var total uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for t := 0; t < r.e.threads; t++ {
		wg.Add(1)
		go func(t int, w *engine.Worker) {
			defer wg.Done()
			n := load(r, t, w)
			mu.Lock()
			total += n
			mu.Unlock()
		}(t, r.c.NewWorker())
	}
	wg.Wait()
	return total
}

// sample is one trial's outcome. A trial fills in ops and whatever metrics and
// series are its own; measure adds the rate and the counter deltas.
type sample struct {
	ops     uint64
	rate    float64 // ops per second
	metrics Metrics
	series  []Metrics
}

// withRig builds p's cache (and server), prefills it, runs fn, and tears it
// all down: every trial starts from the same state.
func withRig(e *experiment, p point, fn func(r *rig) error) error {
	c := engine.New(p.cache)
	c.Start()
	defer c.Stop()
	r := &rig{e: e, c: c, ops: e.ops}
	w := c.NewWorker()
	val := make([]byte, e.valueSize)
	for i := 0; i < e.keyspace; i++ {
		w.Set(benchKey(i), 0, 0, val)
	}
	if p.listen != nil {
		srv, err := server.ListenConfig(c, *p.listen)
		if err != nil {
			return err
		}
		defer srv.Close()
		r.addr = srv.Addr()
	}
	if p.prep != nil {
		p.prep(r)
	}
	if err := fn(r); err != nil {
		return err
	}
	return r.err
}

// measure runs one timed trial of p and reports throughput plus the counter
// deltas the trial caused: merged STM and wire-transaction counters, each TM
// domain's commits and aborts, and each domain's share of the commits — a
// skewed share flags a trial that measured routing imbalance, not the
// mechanism under test.
func measure(e *experiment, p point) (sample, error) {
	var s sample
	err := withRig(e, p, func(r *rig) error {
		w := r.c.NewWorker() // reads the merged engine counters
		before, shardsBefore := w.Stats(), r.c.ShardStats()
		start := time.Now()
		if p.trial != nil {
			s = p.trial(r)
		} else {
			s.ops = r.fanOut(p.load)
		}
		elapsed := time.Since(start)
		after := w.Stats()

		d := after.STM.Sub(before.STM)
		s.rate = float64(s.ops) / elapsed.Seconds()
		m := Metrics{
			"seconds":             elapsed.Seconds(),
			"ops_per_sec":         s.rate,
			"commits":             d.Commits,
			"aborts":              d.Aborts,
			"start_serial":        d.StartSerial,
			"serial_commits":      d.SerialCommits,
			"ro_fast_commits":     d.ROFastCommits,
			"tx_commits":          after.TxCommits - before.TxCommits,
			"tx_conflicts":        after.TxConflicts - before.TxConflicts,
			"tx_serial_fallbacks": after.TxSerialFallbacks - before.TxSerialFallbacks,
		}
		var commits, aborts []uint64
		for i, ss := range r.c.ShardStats() {
			sd := ss.Sub(shardsBefore[i])
			commits, aborts = append(commits, sd.Commits), append(aborts, sd.Aborts)
		}
		m["shard_commits"], m["shard_aborts"] = commits, aborts
		if d.Commits > 0 { // lock-based branches commit nothing
			balance := make([]float64, len(commits))
			for i, n := range commits {
				balance[i] = float64(n) / float64(d.Commits)
			}
			m["shard_balance"] = balance
		}
		for k, v := range s.metrics {
			m[k] = v
		}
		s.metrics = m
		if p.verify != nil {
			p.verify(r, m)
		}
		return nil
	})
	return s, err
}

// interleaved runs every configuration once per round, round-robin, for one
// untimed warm-up round and then rounds kept ones, and returns the kept
// samples per configuration. Interleaving spreads slow whole-process drift
// (heap growth, GC pacing, a noisy neighbour) over every configuration instead
// of charging it to whichever ran last; the warm-up keeps process cold start
// out of the first one.
func interleaved[T any](configs, rounds int, run func(config int) (T, error)) ([][]T, error) {
	out := make([][]T, configs)
	for round := -1; round < rounds; round++ {
		for i := 0; i < configs; i++ {
			v, err := run(i)
			if err != nil {
				return nil, err
			}
			if round >= 0 {
				out[i] = append(out[i], v)
			}
		}
	}
	return out, nil
}

// medianIndex returns the index of the median of xs (the upper one of an even
// count), so the caller can report the whole trial that produced it.
func medianIndex(xs []float64) int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	return idx[len(idx)/2]
}

// run executes one experiment: its points plus a twin of points[0],
// interleaved; each row is the trial with the median throughput.
func (e *experiment) run(env Env) (Result, error) {
	res := Result{Env: env, Experiment: e.name, Claim: e.claim}
	points := append(append([]point(nil), e.points...), e.points[0])
	samples, err := interleaved(len(points), e.trials, func(i int) (sample, error) {
		return measure(e, points[i])
	})
	if err != nil {
		return res, fmt.Errorf("%s: %w", e.name, err)
	}
	var ref float64
	for i, ss := range samples {
		rates := make([]float64, len(ss))
		for j, s := range ss {
			rates[j] = s.rate
		}
		med := ss[medianIndex(rates)]
		if i == 0 {
			ref = med.rate
			res.Series = med.series
		}
		if i == len(e.points) { // the twin: a measurement, not a row
			res.NoiseFloor = math.Abs(med.rate/ref - 1)
			break
		}
		m := med.metrics
		m["vs_ref"] = med.rate / ref
		m["trial_spread"] = (slices.Max(rates) - slices.Min(rates)) / med.rate
		params := Metrics{"threads": e.threads, "ops_per_thread": e.ops, "trials": e.trials, "branch": points[i].cache.Branch.String()}
		for k, v := range points[i].params {
			params[k] = v
		}
		res.Rows = append(res.Rows, Row{Label: points[i].label, Params: params, Metrics: m})
	}
	if e.extra != nil {
		if err := e.extra(e, &res); err != nil {
			return res, fmt.Errorf("%s: %w", e.name, err)
		}
	}
	return res, nil
}

func currentEnv() Env {
	commit := "unknown"
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return Env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
}

// ExperimentNames lists the table in order.
func ExperimentNames() []string {
	var names []string
	for _, e := range experiments(false) {
		names = append(names, e.name)
	}
	return names
}

// RunExperiments runs the named experiments ("all" for every one), prints each
// result, and records them in the JSON array at path: an entry of the same
// name is replaced, entries of experiments not run are kept.
func RunExperiments(names []string, path string) error {
	table := experiments(false)
	var picked []*experiment
	for _, name := range names {
		n := len(picked)
		for i := range table {
			if name == "all" || name == table[i].name {
				picked = append(picked, &table[i])
			}
		}
		if len(picked) == n {
			return fmt.Errorf("no experiment %q (have %s, or all)", name, strings.Join(ExperimentNames(), ", "))
		}
	}
	var recorded []Result
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &recorded); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	env := currentEnv()
	for _, e := range picked {
		res, err := e.run(env)
		if err != nil {
			return err
		}
		fmt.Print(res)
		replaced := false
		for i := range recorded {
			if recorded[i].Experiment == res.Experiment {
				recorded[i], replaced = res, true
			}
		}
		if !replaced {
			recorded = append(recorded, res)
		}
	}
	out, err := json.MarshalIndent(recorded, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// String renders the result for the terminal: throughput rows as a table,
// every other row as its metrics.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n  %d CPUs, GOMAXPROCS %d, %s, commit %s; noise floor %.1f%%\n",
		r.Experiment, r.Claim, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Commit, 100*r.NoiseFloor)
	for _, row := range r.Rows {
		m := row.Metrics
		fmt.Fprintf(&b, "  %-26s", row.Label)
		if rate, ok := m["ops_per_sec"]; ok {
			fmt.Fprintf(&b, " %10.0f ops/s %5.2fx of ref (trials spread %.1f%%)",
				rate, m["vs_ref"], 100*m["trial_spread"].(float64))
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			if !runnerMetrics[k] {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%v", k, m[k])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// runnerMetrics are the metrics measure and run put on every throughput row;
// String prints the ones an experiment added on top.
var runnerMetrics = map[string]bool{
	"seconds": true, "ops_per_sec": true, "vs_ref": true, "trial_spread": true,
	"commits": true, "aborts": true, "start_serial": true, "serial_commits": true, "ro_fast_commits": true,
	"tx_commits": true, "tx_conflicts": true, "tx_serial_fallbacks": true,
	"shard_commits": true, "shard_aborts": true, "shard_balance": true,
}

// latSink collects client-observed latencies from every load thread; whoever
// reports quantiles drains it.
type latSink struct {
	mu sync.Mutex
	ds []time.Duration
}

func (l *latSink) add(d time.Duration) {
	l.mu.Lock()
	l.ds = append(l.ds, d)
	l.mu.Unlock()
}

func (l *latSink) drain() []time.Duration {
	l.mu.Lock()
	out := l.ds
	l.ds = nil
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantileMs reads quantile q from sorted latencies, in milliseconds.
func quantileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted)) * q)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}

// benchKey matches memslap's key format so prefill and lookups agree.
func benchKey(n int) []byte { return fmt.Appendf(nil, "memslap-key-%08d", n) }

// rngState / nextRand: the same splitmix-style generator memslap uses,
// duplicated here so the experiments do not reach into memslap internals.
func rngState(seed uint64) uint64 { return seed*0x9E3779B97F4A7C15 + 1 }

func nextRand(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
