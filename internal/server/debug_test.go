package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/txobs"
)

// debugGet fetches path from the debug handler under test.
func debugGet(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func debugPost(t *testing.T, ts *httptest.Server, path string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "", nil)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	resp.Body.Close()
}

// promLine is the Prometheus text exposition grammar for one sample line
// with an optional label set and no timestamp.
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*")*\})? (-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)$`)

// TestDebugEndpoint drives the debug handler against a live traced 4-shard
// server with one seeded conflict: /debug/vars and /metrics are transcodings
// of the stats groups, /debug/tm prints the tm, conflicts and latency lines
// and toggles tracing, and the pprof index is served.
func TestDebugEndpoint(t *testing.T) {
	s, c := startShardedEventLoop(t)
	ts := httptest.NewServer(NewDebugHandler(s))
	defer ts.Close()

	// Seed some traffic with tracing on, and one attributed conflict.
	debugPost(t, ts, "/debug/tm?enable=1")
	w := c.NewWorker()
	w.Set([]byte("k"), 0, 0, []byte("v"))
	w.Get([]byte("k"))
	c.Observer().Record(&txobs.Event{Kind: txobs.KAbort, Orec: 7, Shard: 2, Label: txobs.RegisterLabel("hash_bucket"),
		Cause: "conflict: location locked", Site: "item_get", Owner: "do_item_link"})

	code, body := debugGet(t, ts, "/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars = %d", code)
	}
	var vars map[string]map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v\n%s", err, body)
	}
	for _, g := range []string{"general", "tm", "conflicts", "latency", "eventloop", "slabs"} {
		if len(vars[g]) == 0 {
			t.Errorf("/debug/vars has no %q group:\n%s", g, body)
		}
	}
	tm := vars["tm"]
	if commits, _ := tm["events_commit"].(float64); tm["branch"] != "it-oncommit" || tm["tracing"] != 1.0 || commits == 0 ||
		vars["general"]["curr_items"] != 1.0 || tm["abort_cause_0"] != "1 conflict: location locked" {
		t.Fatalf("/debug/vars content:\n%s", body)
	}
	// A histogram line is an object of its fields. Commands per burst is a
	// count: its fields carry no _ns suffix, as on the `stats eventloop` line.
	for key, want := range map[string][]string{
		"eventloop.burst_ops":   {"count", "max", "mean", "p50", "p95", "p99"},
		"eventloop.dispatch_ns": {"count", "max_ns", "mean_ns", "p50_ns", "p95_ns", "p99_ns"},
		"latency.phase_commit":  {"count", "max_ns", "mean_ns", "p50_ns", "p95_ns", "p99_ns"},
		"latency.cmd_stats":     {"count", "max_ns", "mean_ns", "p50_ns", "p95_ns", "p99_ns"},
	} {
		g, k, _ := strings.Cut(key, ".")
		fields, _ := vars[g][k].(map[string]any)
		var got []string
		for f, v := range fields {
			if _, ok := v.(float64); !ok {
				t.Errorf("%s.%s = %v, want a number", key, f, v)
			}
			got = append(got, f)
		}
		sort.Strings(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s fields = %q, want %q", key, got, want)
		}
	}

	code, body = debugGet(t, ts, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		`mc_curr_items{group="general"} 1`,
		`mc_shards{group="general"} 4`,
		`mc_shards{group="tm"} 4`,
		`mc_version{group="general",detail="1.4.15-tm-repro"} 1`,
		`mc_branch{group="tm",detail="it-oncommit"} 1`,
		`mc_tracing{group="tm"} 1`,
		`mc_events_abort{group="tm"} 1`,
		`mc_abort_cause_0{group="tm",detail="conflict: location locked"} 1`,
		`mc_conflicts_hash_bucket{group="conflicts"} 1`,
		`mc_conflicts_s2_hash_bucket{group="conflicts"} 1`,
		`mc_orec_7{group="conflicts",detail="hash_bucket"} 1`,
		`mc_conflict_edge_0{group="conflicts",detail="do_item_link item_get hash_bucket"} 1`,
		`mc_phase_commit_count{group="latency"} `,
		`mc_dispatch_ns_p99_ns{group="eventloop"} `,
		`mc_burst_ops_mean{group="eventloop"} `,
		`mc_1_chunk_size{group="slabs"} `,
	} {
		if !strings.Contains("\n"+body, "\n"+want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	// Every line is a well-formed sample, and no (name, labels) pair repeats.
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("/metrics line breaks the exposition grammar: %q", line)
			continue
		}
		if id := m[1] + m[2]; seen[id] {
			t.Errorf("/metrics repeats %s", id)
		} else {
			seen[id] = true
		}
	}

	code, body = debugGet(t, ts, "/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d:\n%.200s", code, body)
	}

	code, body = debugGet(t, ts, "/debug/tm")
	for _, want := range []string{"stats tm\n", "STAT tracing 1\n", "STAT events_commit ",
		"stats conflicts\n", "STAT conflict_edge_0 1 do_item_link item_get hash_bucket\n",
		"stats latency\n", "STAT phase_commit count="} {
		if code != 200 || !strings.Contains(body, want) {
			t.Fatalf("/debug/tm = %d, missing %q:\n%s", code, want, body)
		}
	}

	// Toggle off, then reset: recording stops, aggregates clear.
	debugPost(t, ts, "/debug/tm?enable=0&reset=1")
	_, body = debugGet(t, ts, "/debug/tm")
	if !strings.Contains(body, "STAT tracing 0\n") || strings.Contains(body, "STAT tracing 1\n") {
		t.Fatalf("tracing still enabled:\n%s", body)
	}
	_, body = debugGet(t, ts, "/debug/vars")
	if strings.Contains(body, `"events_commit"`) || strings.Contains(body, `"conflict_edge_0"`) {
		t.Fatalf("tracing aggregates survived reset:\n%s", body)
	}
}

// TestDebugScrapesRegisterNoThreads: a scrape reads the stats groups over a
// connection served by the event loop's pool workers, so it registers no STM
// thread and no stats block. An engine worker built per scrape would stay
// registered on every shard runtime for the cache's lifetime, and every
// later writing commit's quiesce and every `stats` read would scan it.
func TestDebugScrapesRegisterNoThreads(t *testing.T) {
	c := engine.New(engine.Config{Branch: engine.ITOnCommit, HashPower: 8, Shards: 2})
	c.Start()
	s, err := ListenConfig(c, Config{Addr: "127.0.0.1:0"})
	if err != nil {
		c.Stop()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		c.Stop()
	})
	ts := httptest.NewServer(NewDebugHandler(s))
	defer ts.Close()

	threads := func() []int {
		var n []int
		for _, rt := range c.Runtimes() {
			n = append(n, len(rt.Stats().ThreadCommits))
		}
		return n
	}
	// The pool workers register their engine handles as their goroutines
	// start; one scrape first makes sure they have.
	debugGet(t, ts, "/metrics")
	before := threads()
	for i := 0; i < 100; i++ {
		for _, path := range []string{"/debug/vars", "/metrics"} {
			if code, body := debugGet(t, ts, path); code != 200 {
				t.Fatalf("GET %s = %d:\n%s", path, code, body)
			}
		}
	}
	if after := threads(); !slices.Equal(after, before) {
		t.Fatalf("STM threads per shard runtime %v -> %v after 200 scrapes", before, after)
	}
}

// TestDebugFingerprintRetired: with the workload-fingerprint layer gone, its
// route is an unknown path and no fingerprint key is left in /debug/vars or
// /metrics, while the event-loop telemetry is still there.
func TestDebugFingerprintRetired(t *testing.T) {
	s, c := startShardedEventLoop(t)
	c.EnableTracing()
	ts := httptest.NewServer(NewDebugHandler(s))
	defer ts.Close()
	roundTrip(t, s.Addr(), "set dbg 0 0 1\r\nv\r\n", "STORED")

	if code, _ := debugGet(t, ts, "/debug/fingerprint"); code != http.StatusNotFound {
		t.Fatalf("GET /debug/fingerprint = %d, want 404", code)
	}
	resp, err := http.Post(ts.URL+"/debug/fingerprint?enable=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /debug/fingerprint?enable=1 = %d, want 404", resp.StatusCode)
	}

	code, body := debugGet(t, ts, "/debug/vars")
	var vars struct {
		EventLoop struct {
			Workers int `json:"workers"`
		} `json:"eventloop"`
	}
	if err := json.Unmarshal([]byte(body), &vars); code != 200 || err != nil || vars.EventLoop.Workers != 6 {
		t.Fatalf("/debug/vars = %d (err %v), eventloop %+v:\n%.400s", code, err, vars.EventLoop, body)
	}
	if strings.Contains(body, "fingerprint") {
		t.Fatalf("/debug/vars still carries a fingerprint key:\n%s", body)
	}

	code, body = debugGet(t, ts, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{`mc_event_overflow_spills{group="eventloop"}`, `mc_dispatch_ns_p99_ns{group="eventloop"}`, `mc_poller_wakeups{group="eventloop"}`} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "mc_fp_") || strings.Contains(line, "fingerprint") {
			t.Errorf("/metrics still carries %q", line)
		}
	}
}

// TestStatsTMAtOneShard: `stats tm` reports shards and the shard_N_* lines
// even when the cache runs a single TM domain, so a dashboard reading them
// (mctop's shard rows, /debug/vars' tm group) does not break when the
// operator collapses the cache to one domain.
func TestStatsTMAtOneShard(t *testing.T) {
	c := engine.New(engine.Config{Branch: engine.ITOnCommit, Shards: 1, HashPower: 8})
	c.Start()
	s, err := ListenConfig(c, Config{Addr: "127.0.0.1:0"})
	if err != nil {
		c.Stop()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		c.Stop()
	})
	conn, r := dialStats(t, s)
	tm := statsMap(t, conn, r, "tm")
	for key, want := range map[string]string{"shards": "1", "branch": "it-oncommit", "shard_0_algorithm": "mlwt"} {
		if tm[key] != want {
			t.Errorf("stats tm %s = %q, want %q", key, tm[key], want)
		}
	}
	for _, key := range []string{"shard_0_commits", "shard_0_aborts", "shard_0_ro_fast_commit",
		"starts", "serial_commits", "retries"} {
		if tm[key] == "" {
			t.Errorf("stats tm lacks %s at one shard: %v", key, tm)
		}
	}
	if _, ok := tm["shard_1_commits"]; ok {
		t.Errorf("stats tm reports a second shard: %v", tm)
	}
}

// TestDebugTraceEndpoint: the request tracer and its route are gone, so
// /debug/trace is an unknown path for reads and for the old mode switch alike.
func TestDebugTraceEndpoint(t *testing.T) {
	s, _ := startServer(t, engine.ITOnCommit)
	ts := httptest.NewServer(NewDebugHandler(s))
	defer ts.Close()

	if code, _ := debugGet(t, ts, "/debug/trace"); code != http.StatusNotFound {
		t.Fatalf("GET /debug/trace = %d, want 404", code)
	}
	resp, err := http.Post(ts.URL+"/debug/trace?mode=full", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /debug/trace?mode=full = %d, want 404", resp.StatusCode)
	}
}
