package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"
)

// TestMain lets the conns experiment re-execute the test binary as its
// connection-holding agent, the way it re-executes mcbench.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "conns-agent" {
		if err := ConnAgent(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// num reads a numeric metric whatever integer or float type recorded it.
func num(t *testing.T, m Metrics, key string) float64 {
	t.Helper()
	v := reflect.ValueOf(m[key])
	switch {
	case v.CanInt():
		return float64(v.Int())
	case v.CanUint():
		return float64(v.Uint())
	case v.CanFloat():
		return v.Float()
	}
	t.Fatalf("metric %q = %#v, want a number", key, m[key])
	return 0
}

// invariants holds, per experiment, what must be true of its result at any
// size: the correctness half of each claim.
var invariants = map[string]func(t *testing.T, res Result){
	"shards": func(t *testing.T, res Result) {
		for _, row := range res.Rows {
			if n := num(t, row.Metrics, "cross_shard_orec_conflicts"); n != 0 {
				t.Errorf("%s: %v cross-shard orec conflicts", row.Label, n)
			}
			balance := row.Metrics["shard_balance"].([]float64)
			var sum float64
			for _, share := range balance {
				sum += share
			}
			if len(balance) != row.Params["shards"] || math.Abs(sum-1) > 1e-9 {
				t.Errorf("%s: balance %v does not split 1 over %v shards", row.Label, balance, row.Params["shards"])
			}
		}
	},
	"trace-overhead":       func(t *testing.T, res Result) {},
	"fingerprint-overhead": func(t *testing.T, res Result) {},
	"txn": func(t *testing.T, res Result) {
		for _, row := range res.Rows {
			if drift := num(t, row.Metrics, "ledger_drift"); drift != 0 {
				t.Errorf("%s: balances drifted by %v", row.Label, drift)
			}
			if num(t, row.Metrics, "tx_commits") == 0 {
				t.Errorf("%s: nothing committed", row.Label)
			}
		}
	},
	"conns": func(t *testing.T, res Result) {
		rungs := 0
		for _, row := range res.Rows {
			m := row.Metrics
			if m["held_conns"] == nil {
				continue
			}
			rungs++
			if num(t, m, "held_conns") != num(t, row.Params, "conns") {
				t.Errorf("%s: held %v", row.Label, m["held_conns"])
			}
			grew := num(t, m, "goroutines_held") - num(t, m, "goroutines_baseline")
			if row.Params["transport"] == "event-loop" && grew != 0 {
				t.Errorf("%s: event loop grew %v goroutines", row.Label, grew)
			}
			if row.Params["transport"] == "goroutine-per-conn" && grew < num(t, m, "held_conns") {
				t.Errorf("%s: goroutine-per-conn grew only %v goroutines", row.Label, grew)
			}
		}
		if rungs != 6 {
			t.Errorf("%d idle rungs held, want 3 per transport", rungs)
		}
	},
}

// TestExperimentsSmoke runs every experiment of the table at tiny sizes and
// checks the shared schema plus each experiment's invariant.
func TestExperimentsSmoke(t *testing.T) {
	env := currentEnv()
	if env.NumCPU != runtime.NumCPU() || env.GOMAXPROCS < 1 || env.GoVersion == "" || env.Commit == "" {
		t.Fatalf("environment block incomplete: %+v", env)
	}
	table := experiments(true)
	if len(table) != len(invariants) {
		t.Fatalf("table has %d experiments, %d have invariants", len(table), len(invariants))
	}
	for i := range table {
		e := &table[i]
		t.Run(e.name, func(t *testing.T) {
			res, err := e.run(env)
			if err != nil {
				t.Fatal(err)
			}
			if res.Env != env || res.Experiment != e.name || res.Claim == "" {
				t.Errorf("header: %+v", res)
			}
			if math.IsNaN(res.NoiseFloor) || res.NoiseFloor < 0 {
				t.Errorf("noise floor %v", res.NoiseFloor)
			}
			if len(res.Rows) < len(e.points) {
				t.Fatalf("%d rows for %d points", len(res.Rows), len(e.points))
			}
			for j, row := range res.Rows[:len(e.points)] {
				if row.Label != e.points[j].label || row.Params["threads"] != e.threads {
					t.Errorf("row %d: label %q params %v", j, row.Label, row.Params)
				}
				if num(t, row.Metrics, "ops_per_sec") <= 0 || num(t, row.Metrics, "commits") == 0 {
					t.Errorf("%s: empty measurement %v", row.Label, row.Metrics)
				}
			}
			if ref := num(t, res.Rows[0].Metrics, "vs_ref"); ref != 1 {
				t.Errorf("reference row vs_ref = %v", ref)
			}
			invariants[e.name](t, res)

			// The recorded file must round-trip: RunExperiments re-reads it
			// to keep the entries of experiments it did not run.
			data, err := json.Marshal([]Result{res})
			if err != nil {
				t.Fatal(err)
			}
			var back []Result
			if err := json.Unmarshal(data, &back); err != nil || back[0].Experiment != e.name || len(back[0].Rows) != len(res.Rows) {
				t.Errorf("round trip: %v, %+v", err, back)
			}
		})
	}
}

func TestRunExperimentsRejectsUnknownName(t *testing.T) {
	if err := RunExperiments([]string{"no-such"}, t.TempDir()+"/out.json"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestInterleavedMedian pins the trial schedule — every configuration once per
// round, warm-up round dropped — and the median pick.
func TestInterleavedMedian(t *testing.T) {
	var order []int
	values := [][]float64{{99, 5, 1, 3}, {99, 10, 30, 20}, {99, 7, 7, 8}}
	seen := make([]int, len(values))
	got, err := interleaved(len(values), 3, func(i int) (float64, error) {
		order = append(order, i)
		v := values[i][seen[i]]
		seen[i]++
		return v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2}; !reflect.DeepEqual(order, want) {
		t.Errorf("schedule %v, want %v", order, want)
	}
	if want := [][]float64{{5, 1, 3}, {10, 30, 20}, {7, 7, 8}}; !reflect.DeepEqual(got, want) {
		t.Errorf("kept %v, want %v (warm-up round dropped)", got, want)
	}
	for i, want := range []float64{3, 20, 7} {
		if m := got[i][medianIndex(got[i])]; m != want {
			t.Errorf("median of %v = %v, want %v", got[i], m, want)
		}
	}
	if i := medianIndex([]float64{4, 1, 3, 2}); i != 2 {
		t.Errorf("even count: picked index %d, want the upper median at 2", i)
	}

	_, err = interleaved(2, 1, func(i int) (int, error) { return 0, fmt.Errorf("boom") })
	if err == nil {
		t.Error("error from a trial swallowed")
	}
}
