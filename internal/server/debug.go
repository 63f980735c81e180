// Debug HTTP endpoint: the live introspection surface the `-debug-addr` flag
// exposes. Four routes, all read-only except the tracing toggle:
//
//	/debug/vars    expvar-style JSON: the txobs report plus the engine's
//	               stats snapshot under one object
//	/metrics       Prometheus text exposition of the same data
//	/debug/pprof/  net/http/pprof (goroutine/heap/profile/trace), because a
//	               serialization storm diagnosis usually ends in "where are
//	               the worker goroutines blocked?"
//	/debug/tm      GET reports tracing state; POST ?enable=0|1 toggles it;
//	               POST ?reset=1 zeroes the collected aggregates
package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"repro/internal/engine"
	"repro/internal/protocol"
)

// NewDebugHandler builds the debug mux for one cache; srv, when non-nil,
// contributes the transport's telemetry (queue depths, dispatch latency,
// poller counters) to /debug/vars and /metrics.
func NewDebugHandler(cache *engine.Cache, srv *Server) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		vars := map[string]any{
			"branch": cache.Branch().String(),
			"shards": cache.NumShards(),
		}
		if o := cache.Observer(); o != nil {
			vars["tm"] = o.Report(32)
		}
		vars["stats"] = cache.NewWorker().Stats()
		// Always present, even at -shards=1: a dashboard scraping shard_stats
		// must not break when the operator collapses the cache to one domain.
		vars["shard_stats"] = cache.ShardStats()
		inuse, idle := protocol.BufferGauges()
		vars["conn_buffers_inuse"] = inuse
		vars["conn_buffers_idle"] = idle
		if srv != nil {
			vars["eventloop"] = srv.TransportStats().EventLoopSnapshot()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(vars)
	})

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s := cache.NewWorker().Stats()
		fmt.Fprintf(w, "# TYPE mc_curr_items gauge\nmc_curr_items %d\n", s.CurrItems)
		fmt.Fprintf(w, "# TYPE mc_bytes gauge\nmc_bytes %d\n", s.CurrBytes)
		fmt.Fprintf(w, "# TYPE mc_total_items counter\nmc_total_items %d\n", s.TotalItems)
		fmt.Fprintf(w, "# TYPE mc_evictions counter\nmc_evictions %d\n", s.Evictions)
		fmt.Fprintf(w, "# TYPE tm_commits_total counter\ntm_commits_total %d\n", s.STM.Commits)
		fmt.Fprintf(w, "# TYPE tm_aborts_total counter\ntm_aborts_total %d\n", s.STM.Aborts)
		if o := cache.Observer(); o != nil {
			o.Report(32).WritePrometheus(w)
		}
		if srv != nil {
			es := srv.TransportStats().EventLoopSnapshot()
			fmt.Fprintf(w, "# TYPE event_overflow_spills_total counter\nevent_overflow_spills_total %d\n", es.OverflowSpills)
			fmt.Fprintf(w, "# TYPE event_overflow_len gauge\nevent_overflow_len %d\n", es.OverflowLen)
			fmt.Fprintf(w, "# TYPE event_shared_depth gauge\nevent_shared_depth %d\n", es.SharedDepth)
			fmt.Fprintf(w, "# TYPE event_affine_depth gauge\n")
			for i, d := range es.AffineDepth {
				fmt.Fprintf(w, "event_affine_depth{queue=\"%d\"} %d\n", i, d)
			}
			fmt.Fprintf(w, "# TYPE event_worker_busy gauge\n")
			for i, b := range es.WorkerBusy {
				fmt.Fprintf(w, "event_worker_busy{worker=\"%d\"} %.4f\n", i, b)
			}
			fmt.Fprintf(w, "# TYPE event_dispatch_p99_ns gauge\nevent_dispatch_p99_ns %d\n", es.Dispatch.P99)
			fmt.Fprintf(w, "# TYPE poller_wakeups_total counter\npoller_wakeups_total %d\n", es.Poller.Wakeups)
			fmt.Fprintf(w, "# TYPE poller_probes_total counter\npoller_probes_total %d\n", es.Poller.Probes)
			fmt.Fprintf(w, "# TYPE poller_synthesized_total counter\npoller_synthesized_total %d\n", es.Poller.Synthesized)
		}
	})

	mux.HandleFunc("/debug/tm", func(w http.ResponseWriter, r *http.Request) {
		o := cache.Observer()
		if r.Method == http.MethodPost {
			switch r.URL.Query().Get("enable") {
			case "1":
				o = cache.EnableTracing()
			case "0":
				cache.DisableTracing()
			}
			if r.URL.Query().Get("reset") == "1" && o != nil {
				o.Reset()
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if o == nil {
			fmt.Fprintln(w, "tracing: never enabled")
			return
		}
		fmt.Fprintf(w, "tracing: enabled=%v\n%s", o.Enabled(), o.Report(16))
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}

// ListenDebug serves NewDebugHandler(cache, srv) on addr. Returns the
// http.Server (Close to stop) and the bound listener address.
func ListenDebug(cache *engine.Cache, srv *Server, addr string) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: NewDebugHandler(cache, srv)}
	go hs.Serve(ln)
	return hs, ln.Addr().String(), nil
}
