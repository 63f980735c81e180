// Debug HTTP endpoint: the live introspection surface the `-debug-addr` flag
// exposes. It is a client of its own server: every number it shows is a STAT
// line of one of the memcached `stats` groups, transcoded by one rule, so the
// wire protocol is the only code that formats a metric. Four routes, all
// read-only except the tracing toggle:
//
//	/debug/vars    JSON {group: {key: value}}; numbers where the value is one,
//	               a {field: number} object for a histogram line
//	/metrics       Prometheus text exposition: mc_<key>{group="…"} per line
//	/debug/pprof/  net/http/pprof (goroutine/heap/profile/trace), because a
//	               serialization storm diagnosis usually ends in "where are
//	               the worker goroutines blocked?"
//	/debug/tm      GET prints the tm, conflicts and latency STAT lines;
//	               POST ?enable=0|1 toggles tracing; POST ?reset=1 zeroes the
//	               collected aggregates
//
// Each scrape is one client connection, visible in `stats eventloop`'s conns.
package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/client"
)

// statGroups are the `stats` groups /debug/vars and /metrics read. The
// general group ("") is named "general" on both.
var statGroups = []string{"", "tm", "conflicts", "latency", "eventloop", "slabs"}

// scrapeTimeout bounds one scrape's dial plus all of its stats queries.
const scrapeTimeout = 5 * time.Second

// statGroup is one group's reply, in the order the server sent it.
type statGroup struct {
	name  string
	stats []client.Stat
}

// scrape reads groups from srv over one client connection.
func scrape(srv *Server, groups []string) ([]statGroup, error) {
	conn, err := net.DialTimeout("tcp", srv.Addr(), scrapeTimeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(scrapeTimeout))
	cl := client.NewFromConn(conn)
	out := make([]statGroup, 0, len(groups))
	for _, g := range groups {
		stats, err := cl.Stats(g)
		if err != nil {
			return nil, fmt.Errorf("stats %s: %w", g, err)
		}
		name := g
		if name == "" {
			name = "general"
		}
		out = append(out, statGroup{name: name, stats: stats})
	}
	return out, nil
}

// sample is one number a STAT line carries. The one transcoding rule:
//
//	key N              → key = N
//	key N text…        → key = N, detail "text…" (a cause, an edge, a label)
//	key f=v f=v …      → key_f = v per field (a histogram line)
//	key text           → key = 1, detail "text" (version, branch, algorithm)
type sample struct{ name, detail, value string }

func samples(st client.Stat) []sample {
	first, rest, _ := strings.Cut(st.Value, " ")
	if isHist(st.Value) {
		var out []sample
		for _, f := range strings.Fields(st.Value) {
			k, v, _ := strings.Cut(f, "=")
			out = append(out, sample{name: st.Key + "_" + k, value: v})
		}
		return out
	}
	if !isNumber(first) {
		return []sample{{name: st.Key, value: "1", detail: st.Value}}
	}
	return []sample{{name: st.Key, value: first, detail: rest}}
}

// isHist reports whether a STAT value is a histogram's field=value list.
func isHist(v string) bool {
	first, _, _ := strings.Cut(v, " ")
	return strings.Contains(first, "=")
}

// isNumber reports whether s is a decimal number, valid in both JSON and the
// Prometheus text format.
func isNumber(s string) bool {
	_, err := strconv.ParseFloat(s, 64)
	return err == nil && json.Valid([]byte(s))
}

// promName maps a STAT key to a metric name: every character outside
// [A-Za-z0-9_] becomes "_" — the "/" of "conflicts_s2/hash_bucket", which
// Prometheus rejects, and the ":" of "1:chunk_size", which it reserves for
// recording rules.
func promName(key string) string {
	return "mc_" + strings.Map(func(r rune) rune {
		if r == '_' || '0' <= r && r <= '9' || 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' {
			return r
		}
		return '_'
	}, key)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// writeMetrics renders groups as Prometheus text, one untyped sample per
// line, sorted so that each metric's lines are contiguous.
func writeMetrics(w http.ResponseWriter, groups []statGroup) {
	var lines []string
	for _, g := range groups {
		for _, st := range g.stats {
			for _, s := range samples(st) {
				labels := `group="` + g.name + `"`
				if s.detail != "" {
					labels += `,detail="` + labelEscaper.Replace(s.detail) + `"`
				}
				lines = append(lines, promName(s.name)+"{"+labels+"} "+s.value+"\n")
			}
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprint(w, l)
	}
}

// writeVars renders groups as JSON: a number where the value is one, a
// {field: number} object for a histogram line, the raw value otherwise.
func writeVars(w http.ResponseWriter, groups []statGroup) {
	vars := make(map[string]map[string]any, len(groups))
	for _, g := range groups {
		m := make(map[string]any, len(g.stats))
		for _, st := range g.stats {
			switch {
			case isNumber(st.Value):
				m[st.Key] = json.Number(st.Value)
			case isHist(st.Value):
				fields := make(map[string]json.Number)
				for _, f := range strings.Fields(st.Value) {
					k, v, _ := strings.Cut(f, "=")
					fields[k] = json.Number(v)
				}
				m[st.Key] = fields
			default:
				m[st.Key] = st.Value
			}
		}
		vars[g.name] = m
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(vars)
}

// NewDebugHandler builds the debug mux for srv and its cache.
func NewDebugHandler(srv *Server) http.Handler {
	mux := http.NewServeMux()
	serve := func(contentType string, groups []string, render func(http.ResponseWriter, []statGroup)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			gs, err := scrape(srv, groups)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			w.Header().Set("Content-Type", contentType)
			render(w, gs)
		}
	}
	mux.HandleFunc("/debug/vars", serve("application/json; charset=utf-8", statGroups, writeVars))
	mux.HandleFunc("/metrics", serve("text/plain; version=0.0.4; charset=utf-8", statGroups, writeMetrics))

	printTM := serve("text/plain; charset=utf-8", []string{"tm", "conflicts", "latency"},
		func(w http.ResponseWriter, groups []statGroup) {
			for _, g := range groups {
				fmt.Fprintf(w, "stats %s\n", g.name)
				for _, st := range g.stats {
					fmt.Fprintf(w, "STAT %s %s\n", st.Key, st.Value)
				}
			}
		})
	mux.HandleFunc("/debug/tm", func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			o := srv.cache.Observer()
			switch r.URL.Query().Get("enable") {
			case "1":
				o = srv.cache.EnableTracing()
			case "0":
				srv.cache.DisableTracing()
			}
			if r.URL.Query().Get("reset") == "1" && o != nil {
				o.Reset()
			}
		}
		printTM(w, r)
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}

// ListenDebug serves NewDebugHandler(srv) on addr. Returns the http.Server
// (Close to stop) and the bound listener address.
func ListenDebug(srv *Server, addr string) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: NewDebugHandler(srv)}
	go hs.Serve(ln)
	return hs, ln.Addr().String(), nil
}
