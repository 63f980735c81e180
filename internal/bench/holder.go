package bench

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/protocol"
)

// The idle half of the conns experiment. The server parks idle connections in
// the kernel poller and returns their buffers to a pool, so an idle
// connection should cost neither a goroutine stack nor a bufio pair. The
// ladder holds rungs of idle connections and records what the server process
// grew by.
//
// The held connections live in a forked agent (this binary re-exec'd as
// `<exe> conns-agent <addr> <n>`): RLIMIT_NOFILE counts both halves of a
// loopback connection against whoever owns them, so holding N in-process
// would cost 2N descriptors and halve the reachable ladder. Rungs that still
// do not fit under the limit are recorded as skipped, with the reason.

// agentHeadroom is the descriptor budget reserved for everything that is not
// a held connection: listener, epoll fd, wake pipe, stdio, runtime slack.
const agentHeadroom = 512

// connLadder appends one row per rung to res, each held against a server
// configured as the experiment's point.
func connLadder(e *experiment, res *Result, rungs []int) error {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return fmt.Errorf("getrlimit: %w", err)
	}
	// Cur is an int64 on some platforms (FreeBSD), a uint64 on others.
	nofile := uint64(lim.Cur)
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return withRig(e, e.points[0], func(r *rig) error {
		for _, n := range rungs {
			m, err := holdRung(r.addr, n, exe, nofile)
			if err != nil {
				return fmt.Errorf("at %d conns: %w", n, err)
			}
			res.Rows = append(res.Rows, Row{
				Label:   fmt.Sprintf("idle=%d", n),
				Params:  Metrics{"conns": n, "rlimit_nofile": nofile},
				Metrics: m,
			})
		}
		return nil
	})
}

// holdRung has an agent hold n idle connections against addr and measures
// what this process — the server's — grew by while they were held.
func holdRung(addr string, n int, exe string, rlimit uint64) (Metrics, error) {
	// The server spends one descriptor per held connection, the agent one per
	// dialed connection; both live under the same limit.
	if uint64(n)+agentHeadroom > rlimit {
		return Metrics{"skipped": fmt.Sprintf("needs %d descriptors per process; RLIMIT_NOFILE is %d", n+agentHeadroom, rlimit)}, nil
	}
	base, err := settledRSS()
	if err != nil {
		return nil, err
	}
	goroutines := runtime.NumGoroutine()

	cmd := exec.Command(exe, "conns-agent", addr, strconv.Itoa(n))
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting agent: %w", err)
	}
	defer func() {
		stdin.Close() // the agent closes its connections and exits on EOF
		cmd.Wait()
	}()

	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("agent died before holding: %w", err)
	}
	var held int
	if _, err := fmt.Sscanf(line, "HELD %d", &held); err != nil || held != n {
		return nil, fmt.Errorf("agent said %q, want HELD %d", strings.TrimSpace(line), n)
	}
	rss, err := settledRSS()
	if err != nil {
		return nil, err
	}
	inuse, _ := protocol.BufferGauges()
	return Metrics{
		"held_conns":          held,
		"rss_baseline_kb":     base,
		"rss_delta_kb":        rss - base,
		"rss_per_conn_bytes":  float64(rss-base) * 1024 / float64(held),
		"goroutines_baseline": goroutines,
		"goroutines_held":     runtime.NumGoroutine(),
		"conn_buffers_inuse":  inuse,
	}, nil
}

// settledRSS coaxes the runtime into returning what it can to the OS, so RSS
// reflects live memory, then reads it in KB.
func settledRSS() (int64, error) {
	runtime.GC()
	debug.FreeOSMemory()
	time.Sleep(50 * time.Millisecond)
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			return strconv.ParseInt(f[1], 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/self/status")
}

// ConnAgent is the forked half: `conns-agent <addr> <n>`. It dials n
// connections to addr, completes one command on each (so the server counts
// them as served, not half-open), prints "HELD n", and holds them until its
// stdin closes. It runs in its own process so that its descriptors do not
// count against the server's limit.
func ConnAgent(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: conns-agent <addr> <n>")
	}
	n, err := strconv.Atoi(args[1])
	if err != nil || n < 1 {
		return fmt.Errorf("conns-agent: bad connection count %q", args[1])
	}
	conns := make([]net.Conn, 0, n)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for len(conns) < n {
		c, err := net.Dial("tcp", args[0])
		if err != nil {
			return fmt.Errorf("conns-agent: after %d: %w", len(conns), err)
		}
		conns = append(conns, c)
		if _, err := c.Write([]byte("version\r\n")); err != nil {
			return fmt.Errorf("conns-agent: %w", err)
		}
		if _, err := bufio.NewReaderSize(c, 64).ReadString('\n'); err != nil {
			return fmt.Errorf("conns-agent: %w", err)
		}
	}
	fmt.Printf("HELD %d\n", n)
	// Hold until the parent closes the pipe (or dies).
	_, _ = bufio.NewReader(os.Stdin).ReadString('\n')
	return nil
}
