// Package bench regenerates every figure and table of the paper's evaluation
// (§3-§4): the staged-transactionalization time curves (Figures 4, 6, 8, 9),
// the serialization-cause tables at 4 threads (Tables 1-4), the serial-lock
// removal experiment (Figure 10), the algorithm/contention-manager comparison
// (Figure 11), and the §4 abort-ratio quotes.
//
// Time series use the paper's methodology: every client performs a fixed
// number of operations, so perfect scaling is a flat curve, and the reported
// number is wall-clock seconds for the whole run. Absolute values depend on
// the host; the claims under test are the shapes (who wins, by what factor,
// where the crossovers fall), recorded in EXPERIMENTS.md.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/memslap"
	"repro/internal/protocol"
	"repro/internal/stm"
)

// Options scales the experiments. The defaults are laptop-sized; the paper's
// full size is OpsPerThread=625000 on 1..12 threads.
type Options struct {
	Threads      []int // thread counts for figures (default 1,2,4,8,12)
	TableThreads int   // thread count for tables (paper: 4)
	OpsPerThread int   // memslap --execute-number (default 20000)
	KeySpace     int
	ValueSize    int
	// MemLimit defaults to less than the working set, so eviction — and with
	// it the sem_post/logging path whose serialization the Lib→onCommit
	// transition removes — runs continuously, as in the paper's sustained
	// memslap load.
	MemLimit  uint64
	HashPower uint // initial table power; small enough that expansion fires
	Trials    int  // trials per point, averaged (paper: 5)
	// Zipf skews key popularity (hot keys); the paper's memslap run is
	// uniform, so this is exploratory.
	Zipf bool
}

func (o Options) withDefaults() Options {
	if len(o.Threads) == 0 {
		o.Threads = []int{1, 2, 4, 8, 12}
	}
	if o.TableThreads == 0 {
		o.TableThreads = 4
	}
	if o.OpsPerThread == 0 {
		o.OpsPerThread = 20000
	}
	if o.KeySpace == 0 {
		o.KeySpace = 4096
	}
	if o.ValueSize == 0 {
		o.ValueSize = 1024
	}
	if o.MemLimit == 0 {
		o.MemLimit = 2 << 20
	}
	if o.HashPower == 0 {
		o.HashPower = 10
	}
	if o.Trials == 0 {
		o.Trials = 1
	}
	return o
}

// Variant is one curve: a branch plus an optional STM override (Figure 11
// swaps algorithms and contention managers on the NoLock code base).
type Variant struct {
	Label  string
	Branch engine.Branch
	STM    *stm.Config
}

// Point is one measured figure point.
type Point struct {
	Threads int
	Seconds float64
	OpsPerS float64
}

// Series is one labeled curve.
type Series struct {
	Variant Variant
	Points  []Point
}

// Figure is a reproduced figure.
type Figure struct {
	ID     int
	Title  string
	Series []Series
}

// TableRow is one row of Tables 1-4.
type TableRow struct {
	Label        string
	Transactions uint64
	InFlight     uint64
	StartSerial  uint64
	AbortSerial  uint64
}

// Table is a reproduced table.
type Table struct {
	ID    int
	Title string
	Rows  []TableRow
}

// Measurement is one run's combined outcome.
type Measurement struct {
	Seconds float64
	OpsPerS float64
	Stats   stm.Snapshot
}

// Run executes one memslap run against a fresh cache for the variant. With
// multiple trials the MEDIAN time is reported: on a shared or single-core
// host the median resists the scheduler hiccups that skew a mean.
func Run(v Variant, threads int, o Options) Measurement {
	o = o.withDefaults()
	secs := make([]float64, 0, o.Trials)
	rates := make([]float64, 0, o.Trials)
	var snap stm.Snapshot
	for trial := 0; trial < o.Trials; trial++ {
		c := engine.New(engine.Config{
			Branch:    v.Branch,
			Shards:    1, // figure/table baselines measure the single-domain engine
			STM:       v.STM,
			MemLimit:  o.MemLimit,
			HashPower: o.HashPower,
			Automove:  true,
			// The figures and tables measure the paper's structure: one
			// transaction per memcached critical section on every branch.
			PaperSections: true,
		})
		c.Start()
		res := memslap.RunDirect(c, memslap.Config{
			Concurrency:   threads,
			ExecuteNumber: o.OpsPerThread,
			KeySpace:      o.KeySpace,
			ValueSize:     o.ValueSize,
			Zipf:          o.Zipf,
			Seed:          uint64(trial + 1),
		})
		if rt := c.Runtime(); rt != nil {
			snap = rt.Stats() // counters scale with ops, not trials
		}
		c.Stop()
		secs = append(secs, res.Duration.Seconds())
		rates = append(rates, res.OpsPerSec())
	}
	return Measurement{Seconds: median(secs), OpsPerS: median(rates), Stats: snap}
}

func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func runFigure(id int, title string, variants []Variant, o Options) Figure {
	o = o.withDefaults()
	fig := Figure{ID: id, Title: title}
	for _, v := range variants {
		s := Series{Variant: v}
		for _, th := range o.Threads {
			m := Run(v, th, o)
			s.Points = append(s.Points, Point{Threads: th, Seconds: m.Seconds, OpsPerS: m.OpsPerS})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

func runTable(id int, title string, variants []Variant, o Options) Table {
	o = o.withDefaults()
	tab := Table{ID: id, Title: title}
	for _, v := range variants {
		m := Run(v, o.TableThreads, o)
		tab.Rows = append(tab.Rows, TableRow{
			Label:        v.Label,
			Transactions: m.Stats.Commits,
			InFlight:     m.Stats.InFlightSwitch,
			StartSerial:  m.Stats.StartSerial,
			AbortSerial:  m.Stats.AbortSerial,
		})
	}
	return tab
}

// branch is shorthand for a plain branch variant.
func branch(label string, b engine.Branch) Variant { return Variant{Label: label, Branch: b} }

// Figure-series definitions, matching the paper's legends.

func fig4Variants() []Variant {
	return []Variant{
		branch("Baseline", engine.Baseline),
		branch("Semaphore", engine.Semaphore),
		branch("ItemPriv (IP)", engine.IP),
		branch("ItemTx (IT)", engine.IT),
		branch("IP-Callable", engine.IPCallable),
		branch("IT-Callable", engine.ITCallable),
	}
}

func fig6Variants() []Variant {
	return []Variant{
		branch("Baseline", engine.Baseline),
		branch("IP-Callable", engine.IPCallable),
		branch("IT-Callable", engine.ITCallable),
		branch("IP-Max", engine.IPMax),
		branch("IT-Max", engine.ITMax),
	}
}

func fig8Variants() []Variant {
	return append(fig6Variants(),
		branch("IP-Libraries", engine.IPLib),
		branch("IT-Libraries", engine.ITLib))
}

func fig9Variants() []Variant {
	return []Variant{
		branch("Baseline", engine.Baseline),
		branch("IP-Callable", engine.IPCallable),
		branch("IT-Callable", engine.ITCallable),
		branch("IP-Libraries", engine.IPLib),
		branch("IT-Libraries", engine.ITLib),
		branch("IP-onCommit", engine.IPOnCommit),
		branch("IT-onCommit", engine.ITOnCommit),
	}
}

func fig10Variants() []Variant {
	return []Variant{
		branch("Baseline", engine.Baseline),
		branch("IP-onCommit", engine.IPOnCommit),
		branch("IT-onCommit", engine.ITOnCommit),
		branch("IP-NoLock", engine.IPNoLock),
		branch("IT-NoLock", engine.ITNoLock),
	}
}

// fig11Variants compares STM algorithms and contention managers on the best
// NoLock code base (IP-NoLock = "GCC-NoCM" in the paper).
func fig11Variants() []Variant {
	mk := func(label string, cfg stm.Config) Variant {
		c := cfg
		return Variant{Label: label, Branch: engine.IPNoLock, STM: &c}
	}
	return []Variant{
		branch("Baseline", engine.Baseline),
		mk("GCC-NoCM", stm.Config{Algorithm: stm.MLWT, CM: stm.CMNone, NoSerialLock: true}),
		mk("NOrec", stm.Config{Algorithm: stm.NOrec, CM: stm.CMNone, NoSerialLock: true}),
		mk("Lazy", stm.Config{Algorithm: stm.LazyAlg, CM: stm.CMNone, NoSerialLock: true}),
		mk("GCC-Hourglass", stm.Config{Algorithm: stm.MLWT, CM: stm.CMHourglass, HourglassAfter: 128, NoSerialLock: true}),
		mk("GCC-Backoff", stm.Config{Algorithm: stm.MLWT, CM: stm.CMBackoff, NoSerialLock: true}),
	}
}

// FigureVariants returns the series of figure id in legend order (for
// external harnesses like the repository-level benchmarks).
func FigureVariants(id int) []Variant {
	switch id {
	case 4:
		return fig4Variants()
	case 6:
		return fig6Variants()
	case 8:
		return fig8Variants()
	case 9:
		return fig9Variants()
	case 10:
		return fig10Variants()
	case 11:
		return fig11Variants()
	}
	return nil
}

// TableVariants returns the rows of table id in paper order.
func TableVariants(id int) []Variant {
	switch id {
	case 1:
		return []Variant{
			branch("ItemPriv (IP)", engine.IP),
			branch("ItemTx (IT)", engine.IT),
			branch("IP-Callable", engine.IPCallable),
			branch("IT-Callable", engine.ITCallable),
		}
	case 2:
		return []Variant{
			branch("IP-Callable", engine.IPCallable),
			branch("IT-Callable", engine.ITCallable),
			branch("IP-Max", engine.IPMax),
			branch("IT-Max", engine.ITMax),
		}
	case 3:
		return append(TableVariants(2),
			branch("IP-Lib", engine.IPLib),
			branch("IT-Lib", engine.ITLib))
	case 4:
		return []Variant{
			branch("IP-Callable", engine.IPCallable),
			branch("IT-Callable", engine.ITCallable),
			branch("IP-Lib", engine.IPLib),
			branch("IT-Lib", engine.ITLib),
			branch("IP-onCommit", engine.IPOnCommit),
			branch("IT-onCommit", engine.ITOnCommit),
		}
	}
	return nil
}

// RunFigure reproduces figure id (4, 6, 8, 9, 10 or 11).
func RunFigure(id int, o Options) (Figure, error) {
	switch id {
	case 4:
		return runFigure(4, "Performance of baseline transactional memcached", fig4Variants(), o), nil
	case 6:
		return runFigure(6, "Performance of maximally transactionalized memcached", fig6Variants(), o), nil
	case 8:
		return runFigure(8, "Performance with safe library functions", fig8Variants(), o), nil
	case 9:
		return runFigure(9, "Performance with onCommit handlers", fig9Variants(), o), nil
	case 10:
		return runFigure(10, "Performance without the readers/writer lock", fig10Variants(), o), nil
	case 11:
		return runFigure(11, "Comparison to other TM algorithms and contention managers", fig11Variants(), o), nil
	}
	return Figure{}, fmt.Errorf("bench: no figure %d (paper figures: 4, 6, 8, 9, 10, 11)", id)
}

// RunTable reproduces table id (1-4): serialization causes at TableThreads.
func RunTable(id int, o Options) (Table, error) {
	titles := map[int]string{
		1: "Serialized transactions, baseline transactionalization",
		2: "Serialized transactions, maximal transactionalization",
		3: "Serialized transactions, safe libraries",
		4: "Serialized transactions, onCommit handlers",
	}
	title, ok := titles[id]
	if !ok {
		return Table{}, fmt.Errorf("bench: no table %d (paper tables: 1-4)", id)
	}
	return runTable(id, title, TableVariants(id), o), nil
}

// RunProfiled runs one branch with transaction observability enabled (the
// §6 execinfo-style tooling, now the txobs event pipeline) and returns the
// attribution report: the `stats tm`, `stats conflicts` and `stats latency`
// replies — serialization and abort causes, the conflict heat map by named
// structure, who aborted whom, and the phase/command latency histograms.
func RunProfiled(b engine.Branch, threads int, o Options) (string, error) {
	o = o.withDefaults()
	c := engine.New(engine.Config{
		Branch:    b,
		Shards:    1, // profile one TM domain; the shard sweep has its own path
		MemLimit:  o.MemLimit,
		HashPower: o.HashPower,
		Automove:  true,
	})
	if c.Runtime() == nil {
		return "", fmt.Errorf("bench: branch %s is lock-based; nothing to profile", b)
	}
	c.EnableTracing()
	c.Start()
	defer c.Stop()
	res := memslap.RunDirect(c, memslap.Config{
		Concurrency:   threads,
		ExecuteNumber: o.OpsPerThread,
		KeySpace:      o.KeySpace,
		ValueSize:     o.ValueSize,
	})
	var out strings.Builder
	fmt.Fprintf(&out, "%d ops in %.3fs\n", res.Ops, res.Duration.Seconds())
	script := strings.NewReader("stats tm\r\nstats conflicts\r\nstats latency\r\n")
	if err := protocol.NewConn(c.NewWorker(), struct {
		io.Reader
		io.Writer
	}{script, &out}).Serve(); err != nil {
		return "", fmt.Errorf("bench: reading the stats groups: %w", err)
	}
	return out.String(), nil
}

// RatioRow is one §4 abort-rate quote.
type RatioRow struct {
	Label           string
	AbortsPerCommit float64
	RateVariance    float64
}

// RunRatios reproduces the §4 abort-ratio measurements at the highest thread
// count ("at 12 threads, NOrec worker threads aborted once per 5 commits,
// Lazy 14 times per 1 commit, and GCC 12.6 times per 1 commit").
func RunRatios(o Options) []RatioRow {
	o = o.withDefaults()
	threads := o.Threads[len(o.Threads)-1]
	var out []RatioRow
	for _, v := range fig11Variants()[1:] { // skip lock-based baseline
		m := Run(v, threads, o)
		out = append(out, RatioRow{
			Label:           v.Label,
			AbortsPerCommit: m.Stats.AbortsPerCommit(),
			RateVariance:    m.Stats.AbortRateVariance(),
		})
	}
	return out
}

// ---------------------------------------------------------------------------
// Rendering

// String renders the figure as an aligned text table, one row per thread
// count, one column per series — the rows the paper plots.
func (f Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %d: %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-8s", "threads")
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %16s", s.Variant.Label)
	}
	b.WriteString("\n")
	if len(f.Series) == 0 {
		return b.String()
	}
	for i, p := range f.Series[0].Points {
		fmt.Fprintf(&b, "%-8d", p.Threads)
		for _, s := range f.Series {
			fmt.Fprintf(&b, " %14.3fs", s.Points[i].Seconds)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// String renders the table in the paper's column format.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table %d: %s (frequency and cause of serialized transactions)\n", t.ID, t.Title)
	fmt.Fprintf(&b, "%-16s %12s %18s %18s %12s\n", "Branch", "Transactions", "In-Flight Switch", "Start Serial", "Abort Serial")
	pct := func(n, total uint64) string {
		if total == 0 {
			return fmt.Sprintf("%d", n)
		}
		return fmt.Sprintf("%d (%.1f%%)", n, 100*float64(n)/float64(total))
	}
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-16s %12d %18s %18s %12d\n",
			r.Label, r.Transactions, pct(r.InFlight, r.Transactions), pct(r.StartSerial, r.Transactions), r.AbortSerial)
	}
	return b.String()
}
