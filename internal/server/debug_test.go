package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestDebugEndpoint drives the debug handler against a live cache and its
// server: expvar JSON, Prometheus text, the pprof index, and the tracing
// toggle.
func TestDebugEndpoint(t *testing.T) {
	s, c := startServer(t, engine.ITOnCommit)
	ts := httptest.NewServer(NewDebugHandler(c, s))
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// Seed some traffic with tracing on.
	if _, err := http.Post(ts.URL+"/debug/tm?enable=1", "", nil); err != nil {
		t.Fatal(err)
	}
	w := c.NewWorker()
	w.Set([]byte("k"), 0, 0, []byte("v"))
	w.Get([]byte("k"))

	code, body := get("/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars = %d", code)
	}
	var vars struct {
		Branch string `json:"branch"`
		TM     struct {
			Enabled bool              `json:"enabled"`
			Kinds   map[string]uint64 `json:"kinds"`
		} `json:"tm"`
		EventLoop struct {
			BurstOps map[string]json.RawMessage `json:"burst_ops"`
		} `json:"eventloop"`
	}
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v\n%s", err, body)
	}
	if vars.Branch != "it-oncommit" || !vars.TM.Enabled || vars.TM.Kinds["commit"] == 0 {
		t.Fatalf("/debug/vars content: %+v\n%s", vars, body)
	}
	// Commands per burst is a count: its fields carry no _ns suffix, as on
	// the `stats eventloop` line.
	var burstFields []string
	for k := range vars.EventLoop.BurstOps {
		burstFields = append(burstFields, k)
	}
	sort.Strings(burstFields)
	if want := []string{"count", "max", "mean", "p50", "p95", "p99"}; !slices.Equal(burstFields, want) {
		t.Fatalf("eventloop.burst_ops fields = %q, want %q", burstFields, want)
	}

	code, body = get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"mc_curr_items 1",
		"tm_tracing_enabled 1",
		`tm_events_total{kind="commit"}`,
		"# TYPE tm_phase_latency_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get("/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d:\n%.200s", code, body)
	}

	code, body = get("/debug/tm")
	if code != 200 || !strings.Contains(body, "enabled=true") ||
		!strings.Contains(body, "tx observability report") {
		t.Fatalf("/debug/tm = %d:\n%s", code, body)
	}

	// Toggle off, then reset: recording stops, aggregates clear.
	if _, err := http.Post(ts.URL+"/debug/tm?enable=0&reset=1", "", nil); err != nil {
		t.Fatal(err)
	}
	_, body = get("/debug/tm")
	if !strings.Contains(body, "enabled=false") {
		t.Fatalf("tracing still enabled:\n%s", body)
	}
	_, body = get("/debug/vars")
	if strings.Contains(body, `"commit"`) {
		t.Fatalf("kind counters survived reset:\n%s", body)
	}
}

// TestDebugFingerprintRetired: with the workload-fingerprint layer gone, its
// route is an unknown path and no fingerprint key is left in /debug/vars or
// /metrics, while the event-loop telemetry a server handler contributes is
// still there.
func TestDebugFingerprintRetired(t *testing.T) {
	s, c := startShardedEventLoop(t)
	c.EnableTracing()
	ts := httptest.NewServer(NewDebugHandler(c, s))
	defer ts.Close()
	roundTrip(t, s.Addr(), "set dbg 0 0 1\r\nv\r\n", "STORED")

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, _ := get("/debug/fingerprint"); code != http.StatusNotFound {
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

	code, body := get("/debug/vars")
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

	code, body = get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{"event_overflow_spills_total", "event_dispatch_p99_ns", "poller_wakeups_total"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "fp_") || strings.HasPrefix(line, "# TYPE fp_") || strings.Contains(line, "fingerprint") {
			t.Errorf("/metrics still carries %q", line)
		}
	}
}

// TestDebugVarsGaugesAtOneShard: /debug/vars must report shards and
// shard_stats even when the cache runs a single TM domain.
func TestDebugVarsGaugesAtOneShard(t *testing.T) {
	c := engine.New(engine.Config{Branch: engine.ITOnCommit, Shards: 1, HashPower: 8})
	c.Start()
	defer c.Stop()
	ts := httptest.NewServer(NewDebugHandler(c, nil))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)

	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v\n%s", err, body)
	}
	for _, key := range []string{"shards", "shard_stats"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars missing %q at shards=1:\n%s", key, body)
		}
	}
	var shards int
	json.Unmarshal(vars["shards"], &shards)
	if shards != 1 {
		t.Errorf("shards = %d, want 1", shards)
	}
	var shardStats []json.RawMessage
	if err := json.Unmarshal(vars["shard_stats"], &shardStats); err != nil || len(shardStats) != 1 {
		t.Errorf("shard_stats = %s (err %v), want one entry", vars["shard_stats"], err)
	}
}

// TestDebugTraceEndpoint: the request tracer and its route are gone, so
// /debug/trace is an unknown path for reads and for the old mode switch alike.
func TestDebugTraceEndpoint(t *testing.T) {
	c := engine.New(engine.Config{Branch: engine.ITOnCommit, HashPower: 8})
	c.Start()
	defer c.Stop()
	ts := httptest.NewServer(NewDebugHandler(c, nil))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/trace = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/debug/trace?mode=full", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /debug/trace?mode=full = %d, want 404", resp.StatusCode)
	}
}
