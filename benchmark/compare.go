//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchmarkJSON is the part of the root BENCHMARK.json the benchmark reads
// back: metric directions and the bounds that say what counts as a change.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(path string) (*benchmarkJSON, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bj, nil
}

// values collects one metric of one workload over the repeats in a file.
func values(runs []runRecord, workload string, trace bool, metric string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			v = append(v, m.Value)
		}
	}
	return v
}

// printSummary prints, for -repeat, every metric's median, quartiles and
// spread (interquartile range over median; range over median beside it).
func printSummary(runs []runRecord) {
	fmt.Printf("\n== summary over repeats\n%-16s %-30s %3s %14s %14s %14s %8s %8s\n",
		"workload", "metric", "n", "median", "q1", "q3", "iqr/med", "rng/med")
	for _, sp := range workloads {
		for _, set := range []struct {
			trace bool
			defs  []metricDef
		}{{false, endToEnd}, {true, perLayer}} {
			for _, d := range set.defs {
				v := values(runs, sp.name, set.trace, d.name)
				if len(v) == 0 {
					continue
				}
				q1, q2, q3 := quartiles(v)
				s := sortedCopy(v)
				rng := 0.0
				if q2 != 0 {
					rng = (s[len(s)-1] - s[0]) / math.Abs(q2)
				}
				fmt.Printf("%-16s %-30s %3d %14.4f %14.4f %14.4f %8.4f %8.4f\n",
					sp.name, d.name, len(v), q2, q1, q3, spread(v), rng)
			}
		}
	}
}

// Verdicts of a comparison.
const (
	better      = "better"
	worse       = "worse"
	withinBound = "within-bound"
	unresolved  = "unresolved"
)

// verdict compares a change's values of one metric with the parent's. A
// difference counts only when it exceeds both the metric's bound and the
// runs' own spread; a spread wider than the bound leaves everything smaller
// unresolved, not unchanged. change is the relative worsening (negative: an
// improvement).
func verdict(higherBetter bool, bound float64, parent, change []float64) (pm, cm, worsening, noise float64, v string) {
	pm, cm = median(parent), median(change)
	noise = math.Max(spread(parent), spread(change))
	if pm != 0 {
		worsening = (cm - pm) / math.Abs(pm)
	}
	if higherBetter {
		worsening = -worsening
	}
	switch limit := math.Max(bound, noise); {
	case worsening > limit:
		v = worse
	case worsening < -limit:
		v = better
	case noise > bound:
		v = unresolved
	default:
		v = withinBound
	}
	return
}

// runCompare prints one row per workload and end-to-end metric and returns
// the exit code: non-zero on any worse row or on a higher failure ratio.
func runCompare(parentPath, changePath string) int {
	var parent, change resultFile
	for path, dst := range map[string]*resultFile{parentPath: &parent, changePath: &change} {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, dst)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", path, err)
			return 2
		}
	}
	bj, err := readBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Printf("parent %s (commit %s, seed %d)\nchange %s (commit %s, seed %d)\n",
		parentPath, parent.Env.Commit, parent.Env.Seed, changePath, change.Env.Commit, change.Env.Seed)
	fmt.Printf("%-16s %-22s %14s %14s %9s %7s %7s  %s\n",
		"workload", "metric", "parent", "change", "ratio", "spread", "bound", "verdict")
	code := 0
	for _, w := range bj.Workloads {
		for _, m := range bj.EndToEnd {
			p, c := values(parent.Runs, w.Name, false, m.Name), values(change.Runs, w.Name, false, m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			pm, cm, _, noise, v := verdict(m.Better == "higher", m.Bound, p, c)
			fmt.Printf("%-16s %-22s %14.4f %14.4f %8.4fx %7.4f %7.4f  %s\n",
				w.Name, m.Name, pm, cm, cm/pm, noise, m.Bound, v)
			if v == worse {
				code = 1
			}
		}
		pf, cf := failRatio(parent.Runs, w.Name), failRatio(change.Runs, w.Name)
		if cf > pf {
			fmt.Printf("%-16s %-22s %14.6f %14.6f  more commands fail\n", w.Name, "fail_ratio", pf, cf)
			code = 1
		}
	}
	return code
}

func failRatio(runs []runRecord, workload string) float64 {
	var failed, attempted uint64
	for _, r := range runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
