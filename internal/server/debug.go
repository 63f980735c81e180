// Debug HTTP endpoint: the live introspection surface the `-debug-addr` flag
// exposes. Three families of routes, all read-only except the tracing toggle:
//
//	/debug/vars    expvar-style JSON: the txobs report plus the engine's
//	               stats snapshot under one object
//	/metrics       Prometheus text exposition of the same data
//	/debug/pprof/  net/http/pprof (goroutine/heap/profile/trace), because a
//	               serialization storm diagnosis usually ends in "where are
//	               the worker goroutines blocked?"
//	/debug/tm      GET reports tracing state; POST ?enable=0|1 toggles it;
//	               POST ?reset=1 zeroes the collected aggregates
//	/debug/trace   GET exports the request tracer (OTLP-style span JSON plus
//	               slowlog, conflict graph, time series, anomalies, dumps);
//	               POST ?mode=off|sampled|full switches modes, ?dump=1
//	               captures the flight recorder now, ?reset=1 clears it
//	/debug/fingerprint  GET reports the live workload fingerprint (JSON);
//	               POST ?enable=0|1 toggles sampling, ?reset=1 clears windows
package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/txtrace"
)

// NewDebugHandler builds the debug mux for one cache, with no transport
// telemetry (see NewDebugHandlerServer).
func NewDebugHandler(cache *engine.Cache) http.Handler {
	return NewDebugHandlerServer(cache, nil)
}

// NewDebugHandlerServer builds the debug mux for one cache; srv, when
// non-nil, contributes the transport's telemetry (queue depths, dispatch
// latency, poller counters) to /debug/vars and /metrics.
func NewDebugHandlerServer(cache *engine.Cache, srv *Server) http.Handler {
	mux := http.NewServeMux()
	transport := func() protocol.TransportStats {
		if srv == nil {
			return nil
		}
		return srv.TransportStats()
	}

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
		if tr := cache.Tracer(); tr != nil {
			vars["trace_mode"] = tr.Mode().String()
			vars["timeseries_seconds"] = tr.TimeSeriesSeconds()
			vars["slowlog_len"] = tr.SlowlogLen()
			vars["slowlog_dropped"] = tr.SlowlogDropped()
		}
		var ringDropped uint64
		if o := cache.Observer(); o != nil {
			ringDropped = o.RingDropped()
		}
		vars["ring_dropped"] = ringDropped
		inuse, idle := protocol.BufferGauges()
		vars["conn_buffers_inuse"] = inuse
		vars["conn_buffers_idle"] = idle
		if o := cache.Fingerprint(); o != nil {
			vars["fingerprint_enabled"] = cache.FingerprintEnabled()
			vars["fingerprint"] = o.Snapshot()
		}
		if ts := transport(); ts != nil {
			vars["eventloop"] = ts.EventLoopSnapshot()
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
		if o := cache.Fingerprint(); o != nil {
			snap := o.Snapshot()
			fmt.Fprintf(w, "# TYPE fp_shard_ops gauge\n")
			for i := range snap.Shards {
				fmt.Fprintf(w, "fp_shard_ops{shard=\"%d\"} %d\n", i, snap.Shards[i].Ops)
			}
			fmt.Fprintf(w, "# TYPE fp_shard_concentration gauge\n")
			for i := range snap.Shards {
				fmt.Fprintf(w, "fp_shard_concentration{shard=\"%d\"} %.4f\n", i, snap.Shards[i].Concentration)
			}
			fmt.Fprintf(w, "# TYPE fp_shard_abort_conflicts gauge\n")
			for i := range snap.Shards {
				fmt.Fprintf(w, "fp_shard_abort_conflicts{shard=\"%d\"} %d\n", i, snap.Shards[i].Aborts.Conflicts)
			}
			fmt.Fprintf(w, "# TYPE fp_txn_queue_p99_ns gauge\nfp_txn_queue_p99_ns %d\n", snap.TxnQueue.P99)
			fmt.Fprintf(w, "# TYPE fp_txn_validate_p99_ns gauge\nfp_txn_validate_p99_ns %d\n", snap.TxnValidate.P99)
			fmt.Fprintf(w, "# TYPE fp_txn_apply_p99_ns gauge\nfp_txn_apply_p99_ns %d\n", snap.TxnApply.P99)
			fmt.Fprintf(w, "# TYPE fp_txn_serial_wait_p99_ns gauge\nfp_txn_serial_wait_p99_ns %d\n", snap.TxnSerialWait.P99)
		}
		if ts := transport(); ts != nil {
			es := ts.EventLoopSnapshot()
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
			if es.HasPoller {
				fmt.Fprintf(w, "# TYPE poller_wakeups_total counter\npoller_wakeups_total %d\n", es.Poller.Wakeups)
				fmt.Fprintf(w, "# TYPE poller_probes_total counter\npoller_probes_total %d\n", es.Poller.Probes)
				fmt.Fprintf(w, "# TYPE poller_synthesized_total counter\npoller_synthesized_total %d\n", es.Poller.Synthesized)
			}
		}
	})

	mux.HandleFunc("/debug/fingerprint", func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			switch r.URL.Query().Get("enable") {
			case "1":
				cache.EnableFingerprint()
			case "0":
				cache.DisableFingerprint()
			}
			if r.URL.Query().Get("reset") == "1" {
				if o := cache.Fingerprint(); o != nil {
					o.Reset()
				}
			}
		}
		o := cache.Fingerprint()
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if o == nil {
			fmt.Fprintln(w, `{"enabled": false}`)
			return
		}
		out := map[string]any{
			"enabled":     cache.FingerprintEnabled(),
			"fingerprint": o.Snapshot(),
		}
		if ts := transport(); ts != nil {
			out["eventloop"] = ts.EventLoopSnapshot()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
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

	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		tr := cache.Tracer()
		if tr == nil {
			http.Error(w, "tracer unavailable", http.StatusServiceUnavailable)
			return
		}
		if r.Method == http.MethodPost {
			if m := r.URL.Query().Get("mode"); m != "" {
				mode, err := txtrace.ParseMode(m)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				cache.EnableTxTrace(mode)
			}
			if r.URL.Query().Get("dump") == "1" {
				tr.TriggerDump("manual: /debug/trace?dump=1")
			}
			if r.URL.Query().Get("reset") == "1" {
				tr.Reset()
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(tr.Export())
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}

// ListenDebug serves the debug handler on addr. Returns the http.Server
// (Close to stop) and the bound listener address.
func ListenDebug(cache *engine.Cache, addr string) (*http.Server, string, error) {
	return ListenDebugServer(cache, nil, addr)
}

// ListenDebugServer is ListenDebug with transport telemetry: when srv is
// non-nil its event-loop snapshot joins /debug/vars, /debug/fingerprint and
// /metrics.
func ListenDebugServer(cache *engine.Cache, srv *Server, addr string) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: NewDebugHandlerServer(cache, srv)}
	go hs.Serve(ln)
	return hs, ln.Addr().String(), nil
}
