package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestDebugEndpoint drives the debug handler against a live cache: expvar
// JSON, Prometheus text, the pprof index, and the tracing toggle.
func TestDebugEndpoint(t *testing.T) {
	c := engine.New(engine.Config{Branch: engine.ITOnCommit, HashPower: 8})
	c.Start()
	defer c.Stop()
	ts := httptest.NewServer(NewDebugHandler(c))
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
	}
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v\n%s", err, body)
	}
	if vars.Branch != "it-oncommit" || !vars.TM.Enabled || vars.TM.Kinds["commit"] == 0 {
		t.Fatalf("/debug/vars content: %+v\n%s", vars, body)
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

// TestDebugFingerprintEndpoint drives the fingerprint debug surface: the
// toggle endpoint, the JSON snapshot with transport telemetry, /debug/vars
// integration, and the Prometheus names mctop's dashboards alias.
func TestDebugFingerprintEndpoint(t *testing.T) {
	s, c := startFPServer(t)
	ts := httptest.NewServer(NewDebugHandlerServer(c, s))
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

	w := c.NewWorker()
	w.Set([]byte("dbg-hot"), 0, 0, []byte("v"))
	for i := 0; i < 30; i++ {
		w.Get([]byte("dbg-hot"))
	}

	code, body := get("/debug/fingerprint")
	if code != 200 {
		t.Fatalf("/debug/fingerprint = %d", code)
	}
	var snap struct {
		Enabled     bool `json:"enabled"`
		Fingerprint struct {
			Shards []struct {
				Ops     uint64 `json:"ops"`
				HotKeys []struct {
					Key string `json:"key"`
				} `json:"hot_keys"`
			} `json:"shards"`
		} `json:"fingerprint"`
		EventLoop struct {
			Workers int `json:"workers"`
		} `json:"eventloop"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/debug/fingerprint not JSON: %v\n%s", err, body)
	}
	if !snap.Enabled || len(snap.Fingerprint.Shards) != 4 || snap.EventLoop.Workers <= 0 {
		t.Fatalf("/debug/fingerprint content: %+v", snap)
	}
	found := false
	for _, sh := range snap.Fingerprint.Shards {
		for _, hk := range sh.HotKeys {
			if hk.Key == "dbg-hot" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("hot key missing from /debug/fingerprint:\n%s", body)
	}

	code, body = get("/debug/vars")
	if code != 200 || !strings.Contains(body, `"fingerprint_enabled":true`) && !strings.Contains(body, `"fingerprint_enabled": true`) {
		t.Fatalf("/debug/vars missing fingerprint_enabled (%d):\n%.400s", code, body)
	}

	code, body = get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		`fp_shard_ops{shard="0"}`,
		"event_overflow_spills_total",
		"poller_wakeups_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Toggle off, then on again, through the endpoint.
	if resp, err := http.Post(ts.URL+"/debug/fingerprint?enable=0", "", nil); err != nil || resp.StatusCode != 200 {
		t.Fatalf("disable toggle: %v %v", err, resp)
	}
	if c.FingerprintEnabled() {
		t.Fatal("POST enable=0 did not disable sampling")
	}
	if resp, err := http.Post(ts.URL+"/debug/fingerprint?enable=1", "", nil); err != nil || resp.StatusCode != 200 {
		t.Fatalf("enable toggle: %v %v", err, resp)
	}
	if !c.FingerprintEnabled() {
		t.Fatal("POST enable=1 did not re-enable sampling")
	}
}

// TestDebugVarsGaugesAtOneShard: /debug/vars must report shards and
// shard_stats even when the cache runs a single TM domain.
func TestDebugVarsGaugesAtOneShard(t *testing.T) {
	c := engine.New(engine.Config{Branch: engine.ITOnCommit, Shards: 1, HashPower: 8})
	c.Start()
	defer c.Stop()
	ts := httptest.NewServer(NewDebugHandler(c))
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
	ts := httptest.NewServer(NewDebugHandler(c))
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
