package txobs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestDisabledRecordsNothing checks the disabled path is a pure no-op: no
// counters moved, no histograms filled.
func TestDisabledRecordsNothing(t *testing.T) {
	o := New(Options{Orecs: 16})
	for i := 0; i < 100; i++ {
		o.Record(&Event{Kind: KAbort, Orec: 3, Label: RegisterLabel("test_disabled"), Site: "victim", Owner: "owner"})
		o.ObservePhase(PhaseCommit, time.Millisecond)
		o.ObserveCommand("get", time.Millisecond)
	}
	if n := o.KindCount(KAbort); n != 0 {
		t.Fatalf("disabled kind counter = %d", n)
	}
	r := o.Report(0)
	if r.Events != 0 || len(r.Kinds) != 0 || len(r.SerialCauses) != 0 ||
		len(r.ConflictLabels) != 0 || len(r.ConflictEdges) != 0 || len(r.Phases) != 0 || len(r.Commands) != 0 {
		t.Fatalf("disabled observer accumulated state: %+v", r)
	}
}

// TestPerThreadMerge records from several goroutines at once, each standing
// for one thread of its own shard: nothing may be lost between them, and
// every abort lands in its own shard's conflict heat map.
func TestPerThreadMerge(t *testing.T) {
	const threads, each = 4, 2000
	lbl := RegisterLabel("test_merge")
	o := New(Options{Orecs: 64, Shards: threads})
	o.Enable()
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(shard int32) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				o.Record(&Event{Kind: KBegin, Orec: -1, Shard: shard})
				o.Record(&Event{Kind: KAbort, Orec: shard, Shard: shard, Label: lbl,
					Site: "victim", Owner: "owner", Cause: "conflict: location locked"})
			}
		}(int32(i))
	}
	wg.Wait()
	if n := o.KindCount(KBegin); n != threads*each {
		t.Fatalf("begin events = %d, want %d (lost records)", n, threads*each)
	}
	r := o.Report(0)
	if r.Events != 2*threads*each {
		t.Fatalf("events = %d, want %d", r.Events, 2*threads*each)
	}
	if len(r.ShardConflicts) != threads {
		t.Fatalf("shard conflicts = %+v, want one row per shard", r.ShardConflicts)
	}
	for _, l := range r.ShardConflicts {
		if l.Count != each {
			t.Errorf("%s = %d, want %d", l.Label, l.Count, each)
		}
	}
	if r.CrossShardOrecConflicts != 0 {
		t.Errorf("cross-shard orec conflicts = %d with disjoint orecs", r.CrossShardOrecConflicts)
	}
	want := ConflictEdge{Owner: "owner", Victim: "victim", Label: "test_merge", Count: threads * each}
	if len(r.ConflictEdges) != 1 || r.ConflictEdges[0] != want {
		t.Fatalf("conflict edges = %+v, want [%+v]", r.ConflictEdges, want)
	}
}

// TestHeatMapAndReport drives aborts with labels through the aggregation and
// checks the report: per-label counts, per-orec counts, attribution rate, and
// who aborted whom.
func TestHeatMapAndReport(t *testing.T) {
	lb := RegisterLabel("test_bucket")
	ll := RegisterLabel("test_lru")
	o := New(Options{Orecs: 32})
	o.Enable()
	for i := 0; i < 10; i++ {
		o.Record(&Event{Kind: KAbort, Orec: 5, Label: lb, Cause: "conflict: location locked", Site: "item_get", Owner: "do_item_link"})
	}
	for i := 0; i < 3; i++ {
		o.Record(&Event{Kind: KAbort, Orec: 9, Label: ll, Cause: "conflict: read validation", Site: "item_get"})
	}
	o.Record(&Event{Kind: KAbortSerial, Orec: 5, Label: lb, Cause: "abort serial: consecutive-abort limit", Site: "item_get", Owner: "do_item_link"})
	o.Record(&Event{Kind: KAbortSerial, Orec: -1, Label: NoLabel, Cause: "abort serial: consecutive-abort limit"})
	o.Record(&Event{Kind: KCommit, Orec: -1, Site: "item_get"})

	r := o.Report(10)
	if len(r.ConflictLabels) != 2 || r.ConflictLabels[0].Label != "test_bucket" || r.ConflictLabels[0].Count != 10 {
		t.Fatalf("conflict labels = %+v", r.ConflictLabels)
	}
	if len(r.HotOrecs) != 2 || r.HotOrecs[0].Orec != 5 || r.HotOrecs[0].Count != 10 || r.HotOrecs[0].LastLabel != "test_bucket" {
		t.Fatalf("hot orecs = %+v", r.HotOrecs)
	}
	named, total := o.SerialAttribution()
	if named != 1 || total != 2 {
		t.Fatalf("attribution = %d/%d, want 1/2", named, total)
	}
	if r.Kinds["abort"] != 13 || r.Kinds["abort_serial"] != 2 {
		t.Fatalf("kinds = %+v", r.Kinds)
	}
	if len(r.SerialCauses) != 1 || r.SerialCauses[0].Count != 2 {
		t.Fatalf("serial causes = %+v", r.SerialCauses)
	}
	// Aborts and abort-serial escalations both count; commits do not.
	wantEdges := []ConflictEdge{
		{Owner: "do_item_link", Victim: "item_get", Label: "test_bucket", Count: 11},
		{Owner: "", Victim: "item_get", Label: "test_lru", Count: 3},
		{Owner: "", Victim: "", Label: "(unlabeled)", Count: 1},
	}
	if fmt.Sprint(r.ConflictEdges) != fmt.Sprint(wantEdges) {
		t.Fatalf("conflict edges = %+v, want %+v", r.ConflictEdges, wantEdges)
	}

	// Reset zeroes everything resettable; the event total keeps counting.
	o.Reset()
	r = o.Report(0)
	if len(r.Kinds) != 0 || len(r.ConflictLabels) != 0 || len(r.HotOrecs) != 0 || len(r.ConflictEdges) != 0 {
		t.Fatalf("report not empty after reset: %+v", r)
	}
	if r.Events != 16 {
		t.Fatalf("events = %d after reset, want 16", r.Events)
	}
}

// TestHistogramQuantiles checks the log-bucketed quantile math.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 90 fast observations and 10 slow ones: p50 must land in the fast
	// bucket's range, p99 in the slow one's.
	for i := 0; i < 90; i++ {
		h.Observe(900 * time.Nanosecond) // bucket [512, 1024)
	}
	for i := 0; i < 10; i++ {
		h.Observe(70 * time.Microsecond) // bucket [65536, 131072)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P50 < 900*time.Nanosecond || s.P50 > 1024*time.Nanosecond {
		t.Fatalf("p50 = %v, want in [900ns, 1024ns]", s.P50)
	}
	if s.P99 < 70*time.Microsecond || s.P99 > 131072*time.Nanosecond {
		t.Fatalf("p99 = %v, want in [70µs, 131µs]", s.P99)
	}
	if s.Max != 70*time.Microsecond {
		t.Fatalf("max = %v", s.Max)
	}
	if s.Mean == 0 || s.Mean > 70*time.Microsecond {
		t.Fatalf("mean = %v", s.Mean)
	}
	h.Reset()
	if s := h.Snapshot(); s.Count != 0 || s.Max != 0 {
		t.Fatalf("reset left state: %+v", s)
	}

	// Record takes a plain count (commands per burst): 1..100 once each.
	// A negative duration observes as 0.
	for v := uint64(1); v <= 100; v++ {
		h.Record(v)
	}
	h.Observe(-time.Second)
	if s := h.Snapshot(); s.Count != 101 || s.Max != 100 || s.Mean != 50 || s.P50 != 64 || s.P99 != 100 {
		t.Fatalf("counts: %+v, want count 101 max 100 mean 50 p50 64 p99 100", s)
	}
}
