package bench

import (
	"repro/internal/engine"
	"strings"
	"testing"
)

// small keeps harness unit tests fast; shapes are asserted by the root-level
// shape tests and recorded in EXPERIMENTS.md at full scale.
var small = Options{
	Threads:      []int{1, 2},
	TableThreads: 2,
	OpsPerThread: 400,
	KeySpace:     256,
	ValueSize:    128,
	MemLimit:     8 << 20,
}

func TestRunFigureIDs(t *testing.T) {
	for _, id := range []int{4, 6, 8, 9, 10, 11} {
		fig, err := RunFigure(id, small)
		if err != nil {
			t.Fatalf("figure %d: %v", id, err)
		}
		if fig.ID != id || len(fig.Series) == 0 {
			t.Errorf("figure %d malformed: %+v", id, fig.ID)
		}
		for _, s := range fig.Series {
			if len(s.Points) != len(small.Threads) {
				t.Errorf("figure %d series %q has %d points", id, s.Variant.Label, len(s.Points))
			}
			for _, p := range s.Points {
				if p.Seconds <= 0 || p.OpsPerS <= 0 {
					t.Errorf("figure %d series %q: empty point %+v", id, s.Variant.Label, p)
				}
			}
		}
		if out := fig.String(); !strings.Contains(out, "threads") {
			t.Errorf("figure %d renders %q", id, out)
		}
	}
	if _, err := RunFigure(5, small); err == nil {
		t.Error("figure 5 accepted (paper has no figure 5 experiment)")
	}
}

func TestRunTableIDs(t *testing.T) {
	for _, id := range []int{1, 2, 3, 4} {
		tab, err := RunTable(id, small)
		if err != nil {
			t.Fatalf("table %d: %v", id, err)
		}
		if len(tab.Rows) < 4 {
			t.Errorf("table %d has %d rows", id, len(tab.Rows))
		}
		for _, r := range tab.Rows {
			if r.Transactions == 0 {
				t.Errorf("table %d row %q: zero transactions", id, r.Label)
			}
		}
		if out := tab.String(); !strings.Contains(out, "Start Serial") {
			t.Errorf("table %d renders %q", id, out)
		}
	}
	if _, err := RunTable(9, small); err == nil {
		t.Error("table 9 accepted")
	}
}

func TestTable4OnCommitRowsAreClean(t *testing.T) {
	tab, err := RunTable(4, small)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if !strings.Contains(r.Label, "onCommit") {
			continue
		}
		if r.InFlight != 0 || r.StartSerial != 0 {
			t.Errorf("%s: in-flight=%d start-serial=%d, want 0/0", r.Label, r.InFlight, r.StartSerial)
		}
	}
}

// TestFiguresRunPaperSections: the figure and table harness measures the
// paper's one transaction per critical section even on the branches whose
// commands fuse by default — at least four commits per command on
// it-oncommit (a fused engine commits about one).
func TestFiguresRunPaperSections(t *testing.T) {
	o := small
	o.Trials = 1
	m := Run(branch("IT onCommit", engine.ITOnCommit), 1, o)
	if perOp := float64(m.Stats.Commits) / float64(o.OpsPerThread); perOp < 4 {
		t.Errorf("it-oncommit: %.2f commits per command, want >= 4 (the paper's sections)", perOp)
	}
}

func TestRunRatios(t *testing.T) {
	rows := RunRatios(Options{
		Threads:      []int{2},
		OpsPerThread: 400,
		KeySpace:     128,
		ValueSize:    128,
	})
	if len(rows) != 5 {
		t.Fatalf("%d ratio rows", len(rows))
	}
	for _, r := range rows {
		if r.AbortsPerCommit < 0 {
			t.Errorf("%s: negative ratio", r.Label)
		}
	}
}

func TestFigureAndTableVariants(t *testing.T) {
	for _, id := range []int{4, 6, 8, 9, 10, 11} {
		vs := FigureVariants(id)
		if len(vs) < 5 {
			t.Errorf("figure %d: %d variants", id, len(vs))
		}
		for _, v := range vs {
			if v.Label == "" {
				t.Errorf("figure %d: unlabeled variant", id)
			}
		}
	}
	if FigureVariants(5) != nil {
		t.Error("figure 5 returned variants")
	}
	for _, id := range []int{1, 2, 3, 4} {
		if len(TableVariants(id)) < 4 {
			t.Errorf("table %d variants short", id)
		}
	}
	if TableVariants(9) != nil {
		t.Error("table 9 returned variants")
	}
}

func TestRunProfiled(t *testing.T) {
	rep, err := RunProfiled(engine.ITCallable, 2, Options{
		OpsPerThread: 300, KeySpace: 128, ValueSize: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "STAT serial_cause_0 ") || !strings.Contains(rep, "item_get") ||
		!strings.Contains(rep, "STAT phase_commit count=") {
		t.Errorf("report = %q", rep)
	}
	if _, err := RunProfiled(engine.Baseline, 1, Options{OpsPerThread: 10}); err == nil {
		t.Error("profiling a lock branch should error")
	}
}

func TestMedian(t *testing.T) {
	if median(nil) != 0 {
		t.Error("median(nil)")
	}
	if median([]float64{3, 1, 2}) != 2 {
		t.Error("odd median")
	}
	if median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Error("even median")
	}
}
