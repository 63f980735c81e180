package engine

import (
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/stm"
	"repro/internal/txobs"
)

// TestObsSerialAttribution is the acceptance test for the conflict heat map:
// on the it-oncommit branch with tracing on, abort-serial escalations must
// attribute to a named data structure (the label riding on the conflicting
// location's id) at a >= 90% rate.
//
// The conflict is staged deterministically (the machine may have one CPU, so
// organic overlap is rare): a holder agent keeps the cas_counter orec acquired
// inside an open transaction while a worker's in-place Incr — one transaction,
// which also bumps cas_counter — aborts against it until the contention
// manager serializes it. (A Set would not do: its allocating section commits
// first, and a writer's commit waits for every older transaction to finish —
// the parked holder included.)
func TestObsSerialAttribution(t *testing.T) {
	sc := stmConfigFor(configFor(ITOnCommit))
	sc.CM = stm.CMSerialize
	sc.SerializeAfter = 2
	c := New(Config{
		Branch:    ITOnCommit,
		STM:       &sc,
		MemLimit:  2 << 20,
		HashPower: 4,
		Stripes:   4,
	})
	c.Start()
	defer c.Stop()
	obs := c.EnableTracing()

	if res := c.NewWorker().Set([]byte("hot"), 0, 0, []byte("1")); res != Stored {
		t.Fatalf("set: %v", res)
	}
	holder := c.shard0().newAgent()
	hold := make(chan struct{})
	held := make(chan struct{}, 1)
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		holder.section(domains{cache: true}, profile{site: "obs-test holder"}, func(ctx access.Ctx) {
			ctx.SetWord(c.shard0().casCounter, ctx.Word(c.shard0().casCounter)+1)
			select {
			case held <- struct{}{}:
			default:
			}
			<-hold
		})
	}()
	<-held

	setterDone := make(chan struct{})
	go func() {
		defer close(setterDone)
		w := c.NewWorker()
		w.Incr([]byte("hot"), 1)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for c.Runtime().Stats().AbortSerial == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for abort-serial escalation")
		}
		time.Sleep(time.Millisecond)
	}
	close(hold)
	<-holderDone
	<-setterDone

	if n := obs.KindCount(txobs.KCommit); n == 0 {
		t.Fatal("no commit events recorded")
	}
	if n := obs.KindCount(txobs.KAbort); n < 2 {
		t.Fatalf("abort events = %d, want >= 2", n)
	}
	named, total := obs.SerialAttribution()
	if total == 0 {
		t.Fatal("no abort-serial events recorded")
	}
	if float64(named) < 0.9*float64(total) {
		r := obs.Report(10)
		t.Fatalf("abort-serial attribution %d/%d < 90%%\nreport:\n%+v", named, total, r)
	}

	r := obs.Report(10)
	if len(r.ConflictLabels) == 0 || r.ConflictLabels[0].Label != "cas_counter" {
		t.Fatalf("conflict labels = %+v", r.ConflictLabels)
	}
	if len(r.SerialLabels) == 0 || r.SerialLabels[0].Label != "cas_counter" {
		t.Fatalf("serial labels = %+v", r.SerialLabels)
	}
	if len(r.HotOrecs) == 0 || r.HotOrecs[0].LastLabel != "cas_counter" {
		t.Fatalf("hot orecs = %+v", r.HotOrecs)
	}
}

// TestObsLockBranchCommandLatency checks the lock-branch observer path:
// EnableTracing returns a standalone observer that collects command latency
// (there is no runtime to trace).
func TestObsLockBranchCommandLatency(t *testing.T) {
	c := newTestCache(t, Baseline)
	if c.Observer() != nil {
		t.Fatal("observer before EnableTracing")
	}
	o := c.EnableTracing()
	if o == nil || c.Observer() != o {
		t.Fatal("EnableTracing/Observer mismatch")
	}
	if again := c.EnableTracing(); again != o {
		t.Fatal("EnableTracing not idempotent")
	}
	o.ObserveCommand("get", 1234)
	if s, ok := o.Report(0).Commands["get"]; !ok || s.Count != 1 {
		t.Fatalf("command histogram = %+v", o.Report(0).Commands)
	}
	c.DisableTracing()
	o.ObserveCommand("get", 1234)
	if s := o.Report(0).Commands["get"]; s.Count != 1 {
		t.Fatalf("recorded while disabled: %+v", s)
	}
}

// TestResetStatsPreservesGauges checks the memcached `stats reset` contract at
// the engine level: counters (total_items, evictions) go to zero, gauges
// (curr_items, bytes) survive.
func TestResetStatsPreservesGauges(t *testing.T) {
	forEachBranch(t, func(t *testing.T, c *Cache) {
		w := c.NewWorker()
		w.Set([]byte("a"), 0, 0, []byte("v1"))
		w.Set([]byte("b"), 0, 0, []byte("v2"))
		w.Get([]byte("a"))
		before := w.Stats()
		if before.TotalItems == 0 || before.CurrItems != 2 || before.GetCmds == 0 {
			t.Fatalf("pre-reset snapshot: %+v", before)
		}
		w.ResetStats()
		after := w.Stats()
		if after.TotalItems != 0 || after.GetCmds != 0 || after.SetCmds != 0 {
			t.Fatalf("counters survived reset: %+v", after)
		}
		if after.CurrItems != before.CurrItems || after.CurrBytes != before.CurrBytes {
			t.Fatalf("gauges did not survive reset: before %+v after %+v", before, after)
		}
	})
}
