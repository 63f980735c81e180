package protocol

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/txobs"
)

// runTextOn feeds a script through an existing cache (so tests can enable
// tracing or run several connections against the same state).
func runTextOn(t *testing.T, c *engine.Cache, script string) string {
	t.Helper()
	d := &duplex{in: bytes.NewBufferString(script), out: &bytes.Buffer{}}
	if err := NewConn(c.NewWorker(), d).Serve(); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	return d.out.String()
}

// statValue extracts the value of one STAT line, or "" when absent.
func statValue(out, key string) string {
	for _, line := range strings.Split(out, "\r\n") {
		rest, ok := strings.CutPrefix(line, "STAT "+key+" ")
		if ok {
			return rest
		}
	}
	return ""
}

// TestStatsReset is the protocol-level memcached `stats reset` contract:
// command counters and total_items go to zero, the curr_items/bytes gauges
// survive.
func TestStatsResetContract(t *testing.T) {
	c := engine.New(engine.Config{Branch: engine.ITOnCommit, HashPower: 8})
	c.Start()
	defer c.Stop()

	out := runTextOn(t, c,
		"set foo 0 0 3\r\nbar\r\nget foo\r\nget miss\r\nstats\r\n")
	if statValue(out, "cmd_get") != "2" || statValue(out, "cmd_set") != "1" ||
		statValue(out, "total_items") != "1" || statValue(out, "curr_items") != "1" {
		t.Fatalf("pre-reset stats:\n%s", out)
	}

	out = runTextOn(t, c, "stats reset\r\nstats\r\n")
	if !strings.HasPrefix(out, "RESET\r\n") {
		t.Fatalf("no RESET reply:\n%s", out)
	}
	for _, key := range []string{"cmd_get", "cmd_set", "get_hits", "get_misses", "total_items", "evictions"} {
		if v := statValue(out, key); v != "0" {
			t.Errorf("%s = %q after reset, want 0", key, v)
		}
	}
	// Gauges survive.
	if v := statValue(out, "curr_items"); v != "1" {
		t.Errorf("curr_items = %q after reset, want 1", v)
	}
	if v := statValue(out, "bytes"); v == "0" || v == "" {
		t.Errorf("bytes = %q after reset, want preserved", v)
	}
}

// TestStatsWatchdogLines checks the plain `stats` reply carries the
// watchdog counters next to the conn-error lines.
func TestStatsWatchdogLines(t *testing.T) {
	out := runText(t, "stats\r\n")
	for _, key := range []string{"tm_watchdog_backoff", "tm_watchdog_serialize"} {
		if statValue(out, key) == "" {
			t.Errorf("stats reply missing %s:\n%s", key, out)
		}
	}
}

// TestStatsTMSubcommands drives `stats tm`, `stats conflicts`, and
// `stats latency` with tracing off and on.
func TestStatsTMSubcommands(t *testing.T) {
	c := engine.New(engine.Config{Branch: engine.ITOnCommit, HashPower: 8})
	c.Start()
	defer c.Stop()

	// Tracing never enabled: conflicts and latency reply a bare disabled
	// marker; stats tm still reports the runtime counters (the read-only
	// fast-path numbers must be observable without tracing).
	for _, sub := range []string{"conflicts", "latency"} {
		out := runTextOn(t, c, "stats "+sub+"\r\n")
		if out != "STAT tracing 0\r\nEND\r\n" {
			t.Fatalf("stats %s with tracing off = %q", sub, out)
		}
	}
	out := runTextOn(t, c, "stats tm\r\n")
	for _, key := range []string{"ro_fast_commit", "ro_upgrade", "tracing"} {
		if statValue(out, key) == "" {
			t.Fatalf("stats tm with tracing off missing %s:\n%s", key, out)
		}
	}
	if !strings.HasSuffix(out, "STAT tracing 0\r\nEND\r\n") {
		t.Fatalf("stats tm with tracing off should end with disabled marker:\n%s", out)
	}

	c.EnableTracing()
	out = runTextOn(t, c, "set foo 0 0 3\r\nbar\r\nget foo\r\nstats tm\r\n")
	if statValue(out, "tracing") != "1" {
		t.Fatalf("stats tm tracing line:\n%s", out)
	}
	if statValue(out, "events_commit") == "" || statValue(out, "events_begin") == "" {
		t.Fatalf("stats tm missing event counts:\n%s", out)
	}

	out = runTextOn(t, c, "stats latency\r\n")
	m := regexp.MustCompile(`STAT cmd_set count=(\d+) mean_ns=\d+ p50_ns=\d+ p95_ns=\d+ p99_ns=\d+ max_ns=\d+`).FindStringSubmatch(out)
	if m == nil || m[1] == "0" {
		t.Fatalf("stats latency missing cmd_set histogram:\n%s", out)
	}
	if !strings.Contains(out, "STAT phase_commit count=") {
		t.Fatalf("stats latency missing commit phase:\n%s", out)
	}

	// `stats conflicts` shape: tracing line always present; label lines only
	// under contention, so just check it terminates correctly.
	out = runTextOn(t, c, "stats conflicts\r\n")
	if statValue(out, "tracing") != "1" || !strings.HasSuffix(out, "END\r\n") {
		t.Fatalf("stats conflicts reply:\n%s", out)
	}

	// `stats reset` also clears the observability aggregates.
	out = runTextOn(t, c, "stats reset\r\nstats latency\r\n")
	if strings.Contains(out, "STAT cmd_set count=") {
		t.Fatalf("latency histograms survived stats reset:\n%s", out)
	}
}

// TestStatsConflictsAndLatencyLines pins the content of the attribution
// lines every other surface transcodes: a labelled abort shows up as its
// structure's conflict count, its orec with the label, its cause, and a
// who-aborted-whom edge with "-" for the unknown owner; recorded phase and
// command latencies show up as one histogram line each.
func TestStatsConflictsAndLatencyLines(t *testing.T) {
	c := engine.New(engine.Config{Branch: engine.ITOnCommit, HashPower: 8})
	c.Start()
	defer c.Stop()
	o := c.EnableTracing()
	o.Record(&txobs.Event{Kind: txobs.KAbort, Orec: 2, Label: txobs.RegisterLabel("test_render"),
		Cause: "conflict: location locked", Site: "item_get"})
	o.ObservePhase(txobs.PhaseCommit, 3*time.Microsecond)
	o.ObserveCommand("set", 40*time.Microsecond)

	out := runTextOn(t, c, "stats tm\r\nstats conflicts\r\nstats latency\r\n")
	for _, want := range []string{
		"STAT events_abort 1\r\n",
		"STAT abort_cause_0 1 conflict: location locked\r\n",
		"STAT conflicts_test_render 1\r\n",
		"STAT orec_2 1 test_render\r\n",
		"STAT conflict_edge_0 1 - item_get test_render\r\n",
		"STAT cmd_set count=1 mean_ns=40000 p50_ns=40000 p95_ns=40000 p99_ns=40000 max_ns=40000\r\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats reply missing %q:\n%s", want, out)
		}
	}
	if !regexp.MustCompile(`STAT phase_commit count=\d+ mean_ns=\d+ p50_ns=\d+ p95_ns=\d+ p99_ns=\d+ max_ns=\d+\r\n`).MatchString(out) {
		t.Errorf("stats latency missing the commit phase line:\n%s", out)
	}
}

// TestUnknownCommandsShareOneHistogram: with tracing on, every command word
// the server does not know is timed under one key, so a client sending
// distinct junk words cannot grow the latency-histogram map.
func TestUnknownCommandsShareOneHistogram(t *testing.T) {
	c := engine.New(engine.Config{Branch: engine.ITOnCommit, HashPower: 8})
	c.Start()
	defer c.Stop()
	c.EnableTracing()

	var script strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&script, "junk%04d\r\n", i)
	}
	if out := runTextOn(t, c, script.String()); strings.Count(out, "ERROR\r\n") != 1000 {
		t.Fatalf("want 1000 ERROR replies, got %d", strings.Count(out, "ERROR\r\n"))
	}
	out := runTextOn(t, c, "stats latency\r\n")
	if n := strings.Count(out, "STAT cmd_"); n != 1 {
		t.Fatalf("%d cmd_ lines, want 1:\n%s", n, out)
	}
	if !strings.Contains(out, "STAT cmd_unknown count=1000 ") {
		t.Fatalf("stats latency missing cmd_unknown count=1000:\n%s", out)
	}
}
