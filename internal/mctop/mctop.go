// Package mctop implements the data layer of cmd/mctop: it polls a live
// tm-memcached server over the plain text protocol (stats, stats
// fingerprint, stats eventloop), parses the STAT lines into a Frame, and
// renders a terminal dashboard of shards × (ops, hot keys, abort mix) plus
// the transport's queue depths. It needs nothing but the wire
// protocol, so it works against any build of the server — fingerprinting or
// the event loop being off just blanks those columns.
package mctop

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
)

// HotKey is one entry of a shard's decayed top-K sketch.
type HotKey struct {
	Key   string
	Count uint64
	Err   uint64
}

// ShardRow is everything the dashboard shows for one TM shard.
type ShardRow struct {
	Ops           uint64
	Reads         uint64
	Writes        uint64
	Deletes       uint64
	Hits          uint64
	Misses        uint64
	Concentration float64
	HotKeys       []HotKey
	AbortConflict uint64
	AbortSerial   uint64 // serial-evidence escalations, all causes summed
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

	HasFP         bool // server knows the fingerprint surface
	FingerprintOn bool
	Shards        []ShardRow

	// Transport telemetry (stats eventloop); HasEL false when the server
	// runs the classic transport.
	HasEL       bool
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

// statsQuery sends one "stats …" command and streams every STAT line into
// visit until the terminating END.
func statsQuery(rw *bufio.ReadWriter, sub string, visit func(key, val string)) error {
	cmd := "stats"
	if sub != "" {
		cmd += " " + sub
	}
	if _, err := rw.WriteString(cmd + "\r\n"); err != nil {
		return err
	}
	if err := rw.Flush(); err != nil {
		return err
	}
	for {
		line, err := rw.ReadString('\n')
		if err != nil {
			return err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "END" || strings.HasPrefix(line, "ERROR") {
			return nil
		}
		rest, ok := strings.CutPrefix(line, "STAT ")
		if !ok {
			continue
		}
		key, val, ok := strings.Cut(rest, " ")
		if !ok {
			continue
		}
		visit(key, val)
	}
}

func atoiU(s string) uint64 {
	v, _ := strconv.ParseUint(s, 10, 64)
	return v
}

func atoiF(s string) float64 {
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// shardField matches keys like "shard_3_abort_conflicts", returning
// (3, "abort_conflicts", true). The field keeps all its underscores.
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

// Fetch polls addr once. The timeout covers dial plus all three queries.
func Fetch(addr string, timeout time.Duration) (*Frame, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	rw := bufio.NewReadWriter(bufio.NewReader(conn), bufio.NewWriter(conn))
	f := &Frame{When: time.Now()}

	if err := statsQuery(rw, "", func(k, v string) {
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

	shard := func(i int) *ShardRow {
		for len(f.Shards) <= i {
			f.Shards = append(f.Shards, ShardRow{})
		}
		return &f.Shards[i]
	}
	if err := statsQuery(rw, "fingerprint", func(k, v string) {
		switch k {
		case "fingerprint":
			f.HasFP = true
			f.FingerprintOn = v == "1"
			return
		case "shards":
			if n := int(atoiU(v)); n > 0 {
				shard(n - 1)
			}
			return
		}
		i, field, ok := shardField(k)
		if !ok {
			return
		}
		s := shard(i)
		switch field {
		case "ops":
			s.Ops = atoiU(v)
		case "reads":
			s.Reads = atoiU(v)
		case "writes":
			s.Writes = atoiU(v)
		case "deletes":
			s.Deletes = atoiU(v)
		case "hits":
			s.Hits = atoiU(v)
		case "misses":
			s.Misses = atoiU(v)
		case "concentration":
			s.Concentration = atoiF(v)
		case "abort_conflicts":
			s.AbortConflict = atoiU(v)
		case "abort_start_serial", "abort_abort_serial", "abort_watchdog":
			s.AbortSerial += atoiU(v)
		default:
			if strings.HasPrefix(field, "hot_") {
				// value layout: "<count> <err> <key>" — key last, so keys
				// with no spaces parse unambiguously.
				parts := strings.SplitN(v, " ", 3)
				if len(parts) == 3 {
					s.HotKeys = append(s.HotKeys, HotKey{
						Count: atoiU(parts[0]),
						Err:   atoiU(parts[1]),
						Key:   parts[2],
					})
				}
			}
		}
	}); err != nil {
		return nil, err
	}

	if err := statsQuery(rw, "eventloop", func(k, v string) {
		switch k {
		case "eventloop":
			f.HasEL = v == "1"
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
	if cur.HasEL {
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
	} else {
		b.WriteString("transport: classic (goroutine per connection)\n")
	}
	if !cur.HasFP {
		b.WriteString("fingerprint: unavailable on this server\n")
		return b.String()
	}
	if !cur.FingerprintOn {
		b.WriteString("fingerprint: DISABLED (showing last collected windows)\n")
	}
	fmt.Fprintf(&b, "%-5s %10s %8s %8s %6s %6s %5s %s\n",
		"shard", "ops(win)", "reads", "writes", "conc", "abrt", "serl", "hot keys")
	for i := range cur.Shards {
		s := &cur.Shards[i]
		hot := make([]string, 0, 3)
		for j, hk := range s.HotKeys {
			if j == 3 {
				break
			}
			hot = append(hot, fmt.Sprintf("%s:%d", hk.Key, hk.Count))
		}
		fmt.Fprintf(&b, "%-5d %10d %8d %8d %5.2f %6d %5d %s\n",
			i, s.Ops, s.Reads, s.Writes, s.Concentration,
			s.AbortConflict, s.AbortSerial, strings.Join(hot, " "))
	}
	return b.String()
}
