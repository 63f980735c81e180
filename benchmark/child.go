//go:build linux

package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark builds, relative to the checkout
// root it is run from. The root .gitignore names it.
const buildDir = ".bench_build"

// buildServer compiles cmd/memcached from the checkout the benchmark runs in
// and returns the binary's path. With a warm build cache this is a no-op
// link check, so every run may call it.
func buildServer() (string, error) {
	if _, err := os.Stat("cmd/memcached"); err != nil {
		return "", fmt.Errorf("run from the root of a tm-memcached checkout: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "bin", "memcached"))
	if err != nil {
		return "", err
	}
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/memcached").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build ./cmd/memcached: %w\n%s", err, out)
	}
	return bin, nil
}

// child is one running server process.
type child struct {
	cmd  *exec.Cmd
	addr string
	ctl  net.Conn // control connection: version, stats
	ctlR *bufio.Reader

	logMu sync.Mutex
	log   []string // stderr, kept for error reports

	exited chan struct{} // closed once Wait returned
}

// live tracks running children so that SIGINT, a panic or an early return
// can kill them; see killAll.
var live struct {
	sync.Mutex
	m map[*child]struct{}
}

func killAll() {
	live.Lock()
	defer live.Unlock()
	for c := range live.m {
		c.cmd.Process.Kill()
		<-c.exited
	}
	live.m = nil
}

// startChild launches the server on a kernel-chosen port and returns once a
// `version` round trip succeeded.
func startChild(bin string, memMB int) (*child, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-branch", "it-oncommit", "-m", strconv.Itoa(memMB))
	// If the benchmark itself is killed, the kernel takes the server along.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, exited: make(chan struct{})}
	live.Lock()
	if live.m == nil {
		live.m = map[*child]struct{}{}
	}
	live.m[c] = struct{}{}
	live.Unlock()

	// The listen address comes from the server's own log line, so a port
	// never has to be guessed or probed for.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			c.logMu.Lock()
			c.log = append(c.log, line)
			c.logMu.Unlock()
			if _, rest, ok := strings.Cut(line, "serving on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
		cmd.Wait()
		close(c.exited)
	}()

	select {
	case c.addr = <-addrCh:
	case <-c.exited:
		c.forget()
		return nil, fmt.Errorf("server exited before serving:\n%s", c.logTail())
	case <-time.After(10 * time.Second):
		c.stop()
		return nil, fmt.Errorf("server did not report its address within 10s:\n%s", c.logTail())
	}
	if c.ctl, err = net.Dial("tcp", c.addr); err != nil {
		c.stop()
		return nil, fmt.Errorf("server refused the control connection: %w", err)
	}
	c.ctlR = bufio.NewReader(c.ctl)
	if l, err := c.roundTrip("version"); err != nil || !strings.HasPrefix(l, "VERSION ") {
		c.stop()
		return nil, fmt.Errorf("version round trip: %q, %v", l, err)
	}
	return c, nil
}

func (c *child) forget() {
	live.Lock()
	delete(live.m, c)
	live.Unlock()
}

func (c *child) logTail() string {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	l := c.log
	if len(l) > 20 {
		l = l[len(l)-20:]
	}
	return strings.Join(l, "\n")
}

// stop ends the server with SIGTERM and waits for it. A server that has to
// be killed, or that died on its own, is an error: the run it served cannot
// be trusted.
func (c *child) stop() error {
	defer c.forget()
	if c.ctl != nil {
		c.ctl.Close()
	}
	select {
	case <-c.exited:
		return fmt.Errorf("server exited on its own: %v\n%s", c.cmd.ProcessState, c.logTail())
	default:
	}
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
		return nil
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-c.exited
		return errors.New("server ignored SIGTERM for 10s and was killed")
	}
}

// roundTrip sends a one-line command on the control connection and returns
// the one-line reply.
func (c *child) roundTrip(line string) (string, error) {
	c.ctl.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := fmt.Fprintf(c.ctl, "%s\r\n", line); err != nil {
		return "", err
	}
	l, err := c.ctlR.ReadString('\n')
	return strings.TrimRight(l, "\r\n"), err
}

// stats runs `stats [sub]` and returns the STAT lines as name → rest of line.
func (c *child) stats(sub string) (map[string]string, error) {
	c.ctl.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := fmt.Fprintf(c.ctl, "%s\r\n", strings.TrimSpace("stats "+sub)); err != nil {
		return nil, err
	}
	m := map[string]string{}
	for {
		l, err := c.ctlR.ReadString('\n')
		if err != nil {
			return nil, err
		}
		l = strings.TrimRight(l, "\r\n")
		if l == "END" {
			return m, nil
		}
		rest, ok := strings.CutPrefix(l, "STAT ")
		if !ok {
			return nil, fmt.Errorf("stats %s: unexpected line %q", sub, l)
		}
		name, val, _ := strings.Cut(rest, " ")
		m[name] = val
	}
}

// counters is a scrape of every numeric counter the server and the kernel
// publish about it: `stats`, `stats eventloop` and /proc/<pid>/io.
type counters map[string]float64

func (c *child) counters() (counters, error) {
	out := counters{}
	for _, sub := range []string{"", "eventloop"} {
		m, err := c.stats(sub)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				out[k] = f
				continue
			}
			// Histogram lines: "count=12 mean_ns=34 p50_ns=...".
			for _, kv := range strings.Fields(v) {
				if name, val, ok := strings.Cut(kv, "="); ok {
					if f, err := strconv.ParseFloat(val, 64); err == nil {
						out[k+"."+name] = f
					}
				}
			}
		}
	}
	io, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", c.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	for _, l := range strings.Split(string(io), "\n") {
		if name, val, ok := strings.Cut(l, ": "); ok {
			f, _ := strconv.ParseFloat(val, 64)
			out["io."+name] = f
		}
	}
	return out, nil
}

// connErrors is the sum of the server's conn_errors_* counters; any is a
// failed run.
func (cs counters) connErrors() float64 {
	return cs["conn_errors_io"] + cs["conn_errors_protocol"] + cs["conn_errors_timeout"]
}

// cpuSeconds is the process's user+system CPU time so far.
func (c *child) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line, i.e. 11 and 12 counted from the state field.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unparseable /proc stat: %q", b)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparseable /proc stat: %q", b)
	}
	const clkTck = 100 // USER_HZ: fixed at 100 on every Linux ABI
	return (ut + st) / clkTck, nil
}

// status returns fields of /proc/<pid>/status in their own units (kB for
// the Vm* fields).
func (c *child) status(fields ...string) ([]float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(fields))
	for _, l := range strings.Split(string(b), "\n") {
		name, val, ok := strings.Cut(l, ":")
		if !ok {
			continue
		}
		for i, want := range fields {
			if name == want {
				v, _, _ := strings.Cut(strings.TrimSpace(val), " ")
				out[i], _ = strconv.ParseFloat(v, 64)
			}
		}
	}
	return out, nil
}
