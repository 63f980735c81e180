// Package mctop implements the data layer of cmd/mctop: it polls a live
// tm-memcached server over the plain text protocol (stats, stats tm, stats
// conflicts, stats eventloop), parses the STAT lines into a Frame, and
// renders a terminal dashboard: per-shard commits, aborts and read-only
// fast-path commits, the hottest conflict label and the heaviest
// who-aborted-whom edge, plus the transport's queue depths. It needs nothing
// but the wire protocol, read through client.Stats, so it works against any
// build of the server — tracing being off just blanks the conflict lines.
package mctop

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"repro/client"
)

// ShardRow is one TM shard's cumulative transaction counters (stats tm).
type ShardRow struct {
	Commits uint64
	Aborts  uint64
	ROFast  uint64 // commits on the read-only fast path
}

// Edge is one who-aborted-whom line of stats conflicts: Owner's transactions
// aborted Victim's Count times on a location labelled Label ("-" = unknown
// site).
type Edge struct {
	Count                uint64
	Owner, Victim, Label string
}

// Frame is one poll of the server.
type Frame struct {
	When    time.Time
	Version string

	// Cumulative command counters (rates are computed between frames).
	CmdGet    uint64
	CmdSet    uint64
	TMCommits uint64
	TMAborts  uint64
	CurrItems uint64

	// Shards has one row per TM domain (stats tm's shard_N_* lines).
	Shards []ShardRow

	// Conflict attribution (stats conflicts), only while the server traces.
	Tracing  bool
	HotLabel string // structure with the most conflict aborts, "" if none
	HotCount uint64
	TopEdge  Edge // Count 0 if no edge was recorded

	// Transport telemetry (stats eventloop).
	Workers     int
	Conns       int
	SharedDepth int
	OverflowLen int
	Spills      uint64
	AffineDepth []int
	WorkerBusy  []float64
	PollWakeups uint64
	PollProbes  uint64
	PollSynth   uint64
}

func atoiU(s string) uint64 {
	v, _ := strconv.ParseUint(s, 10, 64)
	return v
}

func atoiF(s string) float64 {
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// shardField matches keys like "shard_3_ro_fast_commit", returning
// (3, "ro_fast_commit", true). The field keeps all its underscores.
func shardField(key string) (int, string, bool) {
	rest, ok := strings.CutPrefix(key, "shard_")
	if !ok {
		return 0, "", false
	}
	idx, field, ok := strings.Cut(rest, "_")
	if !ok {
		return 0, "", false
	}
	n, err := strconv.Atoi(idx)
	if err != nil || n < 0 || n > 1<<16 {
		return 0, "", false
	}
	return n, field, true
}

// Fetch polls addr once. The timeout covers dial plus all four queries.
func Fetch(addr string, timeout time.Duration) (*Frame, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	cl := client.NewFromConn(conn)
	f := &Frame{When: time.Now()}
	query := func(group string, visit func(key, val string)) error {
		stats, err := cl.Stats(group)
		if err != nil {
			return fmt.Errorf("stats %s: %w", group, err)
		}
		for _, st := range stats {
			visit(st.Key, st.Value)
		}
		return nil
	}

	if err := query("", func(k, v string) {
		switch k {
		case "version":
			f.Version = v
		case "cmd_get":
			f.CmdGet = atoiU(v)
		case "cmd_set":
			f.CmdSet = atoiU(v)
		case "tm_transactions":
			f.TMCommits = atoiU(v)
		case "tm_aborts":
			f.TMAborts = atoiU(v)
		case "curr_items":
			f.CurrItems = atoiU(v)
		}
	}); err != nil {
		return nil, err
	}

	if err := query("tm", func(k, v string) {
		i, field, ok := shardField(k)
		if !ok {
			return
		}
		for len(f.Shards) <= i {
			f.Shards = append(f.Shards, ShardRow{})
		}
		switch field {
		case "commits":
			f.Shards[i].Commits = atoiU(v)
		case "aborts":
			f.Shards[i].Aborts = atoiU(v)
		case "ro_fast_commit":
			f.Shards[i].ROFast = atoiU(v)
		}
	}); err != nil {
		return nil, err
	}

	if err := query("conflicts", func(k, v string) {
		if k == "tracing" {
			f.Tracing = v == "1"
		}
		// Labels come hottest first; the shard-qualified ones ("s2/…")
		// follow them, so the first line names the hottest structure.
		if label, ok := strings.CutPrefix(k, "conflicts_"); ok && f.HotLabel == "" {
			f.HotLabel, f.HotCount = label, atoiU(v)
		}
		// value layout: "<count> <owner> <victim> <label>".
		if p := strings.Fields(v); k == "conflict_edge_0" && len(p) == 4 {
			f.TopEdge = Edge{Count: atoiU(p[0]), Owner: p[1], Victim: p[2], Label: p[3]}
		}
	}); err != nil {
		return nil, err
	}

	if err := query("eventloop", func(k, v string) {
		switch k {
		case "workers":
			f.Workers = int(atoiU(v))
		case "conns":
			f.Conns = int(atoiU(v))
		case "shared_depth":
			f.SharedDepth = int(atoiU(v))
		case "overflow_len":
			f.OverflowLen = int(atoiU(v))
		case "event_overflow_spills":
			f.Spills = atoiU(v)
		case "poller_wakeups":
			f.PollWakeups = atoiU(v)
		case "poller_probes":
			f.PollProbes = atoiU(v)
		case "poller_synthesized":
			f.PollSynth = atoiU(v)
		default:
			if rest, ok := strings.CutPrefix(k, "affine_"); ok {
				if idx, ok := strings.CutSuffix(rest, "_depth"); ok {
					if n, err := strconv.Atoi(idx); err == nil && n >= 0 {
						for len(f.AffineDepth) <= n {
							f.AffineDepth = append(f.AffineDepth, 0)
						}
						f.AffineDepth[n] = int(atoiU(v))
					}
				}
			}
			if rest, ok := strings.CutPrefix(k, "worker_"); ok {
				if idx, ok := strings.CutSuffix(rest, "_busy"); ok {
					if n, err := strconv.Atoi(idx); err == nil && n >= 0 {
						for len(f.WorkerBusy) <= n {
							f.WorkerBusy = append(f.WorkerBusy, 0)
						}
						f.WorkerBusy[n] = atoiF(v)
					}
				}
			}
		}
	}); err != nil {
		return nil, err
	}
	return f, nil
}

// rate renders a per-second counter delta between two frames, "-" when no
// previous frame exists.
func rate(cur, prev uint64, dt float64) string {
	if dt <= 0 {
		return "-"
	}
	if cur < prev {
		return "0/s" // counter reset mid-interval
	}
	return fmt.Sprintf("%.0f/s", float64(cur-prev)/dt)
}

// Render draws one dashboard frame. prev may be nil (first frame: rates
// render as "-"); the caller owns screen clearing.
func Render(cur, prev *Frame) string {
	var b strings.Builder
	dt := 0.0
	var p Frame
	if prev != nil {
		p = *prev
		dt = cur.When.Sub(prev.When).Seconds()
	}
	fmt.Fprintf(&b, "mctop — %s  items=%d  get=%s set=%s  tm_commit=%s tm_abort=%s\n",
		cur.Version, cur.CurrItems,
		rate(cur.CmdGet, p.CmdGet, dt), rate(cur.CmdSet, p.CmdSet, dt),
		rate(cur.TMCommits, p.TMCommits, dt), rate(cur.TMAborts, p.TMAborts, dt))
	fmt.Fprintf(&b, "transport: event-loop  workers=%d conns=%d sharedq=%d overflow=%d spills=%d",
		cur.Workers, cur.Conns, cur.SharedDepth, cur.OverflowLen, cur.Spills)
	if len(cur.AffineDepth) > 0 {
		depths := make([]string, len(cur.AffineDepth))
		for i, d := range cur.AffineDepth {
			depths[i] = strconv.Itoa(d)
		}
		fmt.Fprintf(&b, " affine=[%s]", strings.Join(depths, " "))
	}
	fmt.Fprintf(&b, "\npoller: wakeups=%d probes=%d synthesized=%d", cur.PollWakeups, cur.PollProbes, cur.PollSynth)
	if len(cur.WorkerBusy) > 0 {
		busy := make([]string, len(cur.WorkerBusy))
		for i, f := range cur.WorkerBusy {
			busy[i] = fmt.Sprintf("%.0f%%", f*100)
		}
		fmt.Fprintf(&b, "  busy=[%s]", strings.Join(busy, " "))
	}
	b.WriteByte('\n')
	if !cur.Tracing {
		b.WriteString("conflicts: tracing off (start the server with -trace)\n")
	} else if cur.HotLabel == "" {
		b.WriteString("conflicts: none recorded\n")
	} else {
		fmt.Fprintf(&b, "conflicts: hottest %s (%d)", cur.HotLabel, cur.HotCount)
		if e := cur.TopEdge; e.Count > 0 {
			fmt.Fprintf(&b, "  top edge: %s aborted %s %d× on %s", e.Owner, e.Victim, e.Count, e.Label)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-5s %12s %10s %12s %10s %10s\n", "shard", "commits", "aborts", "ro_fast", "commit/s", "abort/s")
	for i, s := range cur.Shards {
		var ps ShardRow
		if i < len(p.Shards) {
			ps = p.Shards[i]
		}
		fmt.Fprintf(&b, "%-5d %12d %10d %12d %10s %10s\n", i, s.Commits, s.Aborts, s.ROFast,
			rate(s.Commits, ps.Commits, dt), rate(s.Aborts, ps.Aborts, dt))
	}
	return b.String()
}
