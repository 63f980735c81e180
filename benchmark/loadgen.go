//go:build linux

package main

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"syscall"
	"time"
)

// wireOpts shapes one run against child servers.
type wireOpts struct {
	seed uint64
	// instances is how many servers the run measures, one after the other:
	// each is started and prefilled (the unit setup_s times), warmed up and
	// measured for window/instances. Every end-to-end metric is the median
	// over instances, so one unlucky process — thread placement, heap
	// layout — moves one of them, not the run.
	instances int
	window    time.Duration // measured in total
	warmup    time.Duration // per instance
	scrape    bool          // reset and read the server's counters around the window (per-layer run)
	bin       string
}

// windowSlices is how many slices each window is cut into; rates and
// percentiles are medians over them.
const windowSlices = 10

// wireResult is what one run measured.
type wireResult struct {
	rounds  int // latency samples in the windows
	ops     uint64
	opsPerS float64
	p50us   float64
	p99us   float64
	cpuUsOp float64
	rssMB   float64
	hit     float64
	setupS  float64

	loadgenCPU float64  // generator CPU seconds per wall second over the window
	threads    float64  // server threads at the end of the window
	delta      counters // server counters over the window (scrape only)
	end        counters // absolute values at the end of the window (scrape only)

	tally
}

// numConns is the closed-loop client count, each connection with its own
// goroutine. Four keep a 2-CPU host busy: with fewer, CPUs idle between
// rounds and the cost of waking them, not the server, sets the latency (and
// its run-to-run spread).
const numConns = 4

// sample is one round: when it ended (since the run's origin) and how long
// it took from the first request byte written to the last reply byte parsed.
type sample struct{ end, lat time.Duration }

// conn is one closed-loop client.
type conn struct {
	nc  net.Conn
	gen *gen
	chk *checker

	samples []sample
	// gets and hits when the window opened, so that window totals are
	// differences (exact to within a round at each edge).
	baseGets, baseHits uint64
	err                error
}

// setup starts a server and stores the workload's initial data through the
// workload's own protocol. It is the unit setup_s times.
func setup(sp *spec, bin string) (*child, *checker, error) {
	c, err := startChild(bin, sp.memMB)
	if err != nil {
		return nil, nil, err
	}
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		c.stop()
		return nil, nil, err
	}
	defer nc.Close()
	chk := newChecker(sp, nc)
	err = sp.prefillRounds(256, func(r *round) error {
		if _, err := nc.Write(r.req); err != nil {
			return err
		}
		return chk.readRound(r)
	})
	if err != nil {
		c.stop()
		return nil, nil, fmt.Errorf("prefill: %w", err)
	}
	return c, chk, nil
}

// runWire is one run of sp: o.instances servers measured one after the other
// and merged, the end-to-end metrics by median.
func runWire(sp *spec, o wireOpts) (*wireResult, error) {
	res := &wireResult{}
	var all []*wireResult
	for i := 0; i < o.instances; i++ {
		one, err := runInstance(sp, o, i)
		if err != nil {
			return nil, err
		}
		all = append(all, one)
		res.rounds += one.rounds
		res.ops += one.ops
		res.add(one.tally)
		// The per-layer run has one instance; its counters are the run's.
		res.loadgenCPU, res.threads, res.delta, res.end = one.loadgenCPU, one.threads, one.delta, one.end
	}
	med := func(metric func(*wireResult) float64) float64 {
		v := make([]float64, len(all))
		for i, one := range all {
			v[i] = metric(one)
		}
		return median(v)
	}
	res.opsPerS = med(func(r *wireResult) float64 { return r.opsPerS })
	res.p50us = med(func(r *wireResult) float64 { return r.p50us })
	res.p99us = med(func(r *wireResult) float64 { return r.p99us })
	res.cpuUsOp = med(func(r *wireResult) float64 { return r.cpuUsOp })
	res.rssMB = med(func(r *wireResult) float64 { return r.rssMB })
	res.hit = med(func(r *wireResult) float64 { return r.hit })
	res.setupS = med(func(r *wireResult) float64 { return r.setupS })
	return res, nil
}

// runInstance sets up one server, warms it up, measures a window of
// closed-loop rounds against it, verifies, and stops it.
func runInstance(sp *spec, o wireOpts, instance int) (res *wireResult, err error) {
	res = &wireResult{}
	t0 := time.Now()
	srv, chk, err := setup(sp, o.bin)
	if err != nil {
		return nil, err
	}
	res.setupS = time.Since(t0).Seconds()
	res.add(chk.tally)
	defer func() {
		if serr := srv.stop(); serr != nil && err == nil {
			res, err = nil, serr
		}
	}()

	window := o.window / time.Duration(o.instances)
	conns := make([]*conn, numConns)
	for i := range conns {
		nc, err := net.Dial("tcp", srv.addr)
		if err != nil {
			return nil, fmt.Errorf("connection refused: %w", err)
		}
		defer nc.Close()
		// A server that stops answering fails the run; it does not hang it.
		nc.SetDeadline(time.Now().Add(o.warmup + window + 30*time.Second))
		conns[i] = &conn{
			nc: nc, gen: newGen(sp, o.seed, instance*numConns+i), chk: newChecker(sp, nc),
			samples: make([]sample, 0, 1<<18),
		}
	}

	origin := time.Now()
	winStart, winEnd := o.warmup, o.warmup+window
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			c.err = c.loop(origin, winStart, winEnd)
		}(c)
	}

	// The controller samples the server from outside at the window's edges.
	time.Sleep(time.Until(origin.Add(winStart)))
	var before counters
	if o.scrape {
		if l, err := srv.roundTrip("stats reset"); err != nil || l != "RESET" {
			return nil, fmt.Errorf("stats reset: %q, %v", l, err)
		}
		if before, err = srv.counters(); err != nil {
			return nil, err
		}
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	self0, w0 := selfCPU(), time.Now()
	time.Sleep(time.Until(origin.Add(winEnd)))
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	res.loadgenCPU = (selfCPU() - self0) / time.Since(w0).Seconds()
	wg.Wait()

	for _, c := range conns {
		if c.err != nil {
			return nil, c.err
		}
	}
	after, err := srv.counters()
	if err != nil {
		return nil, err
	}
	if n := after.connErrors() + before.connErrors(); n != 0 {
		return nil, fmt.Errorf("%s: server counted %v connection errors", sp.name, n)
	}
	if o.scrape {
		res.end = after
		res.delta = counters{}
		for k, v := range after {
			res.delta[k] = v - before[k]
		}
	}
	st, err := srv.status("VmHWM", "Threads")
	if err != nil {
		return nil, err
	}
	res.rssMB, res.threads = st[0]/1024, st[1]

	// Window totals and per-slice medians.
	var gets, hits uint64
	all := make([][]sample, 0, len(conns))
	for _, c := range conns {
		gets += c.chk.gets - c.baseGets
		hits += c.chk.hits - c.baseHits
		res.rounds += len(c.samples)
		res.add(c.chk.tally)
		all = append(all, c.samples)
	}
	if res.rounds == 0 || gets == 0 {
		return nil, fmt.Errorf("%s: no round finished inside the window", sp.name)
	}
	res.ops = uint64(res.rounds * sp.depth)
	res.hit = float64(hits) / float64(gets)
	res.cpuUsOp = (cpu1 - cpu0) * 1e6 / float64(res.ops)
	res.opsPerS, res.p50us, res.p99us = sliceMedians(all, winStart, window, windowSlices, sp.depth)

	if sp.counters {
		if err := counterOracle(sp, srv, conns, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// loop runs rounds back to back until the window has closed. Each round is
// encoded before its clock starts.
func (c *conn) loop(origin time.Time, winStart, winEnd time.Duration) error {
	var r round
	in := false
	for {
		c.gen.fill(&r)
		t0 := time.Since(origin)
		if _, err := c.nc.Write(r.req); err != nil {
			return err
		}
		if err := c.chk.readRound(&r); err != nil {
			return err
		}
		t1 := time.Since(origin)
		if t1 >= winEnd {
			if !in {
				return errors.New("a single round outlasted the whole window")
			}
			return nil
		}
		if t1 >= winStart {
			if !in {
				in = true
				c.baseGets, c.baseHits = c.chk.gets, c.chk.hits
			}
			c.samples = append(c.samples, sample{t1, t1 - t0})
		}
	}
}

// sliceMedians cuts the window into n slices by round end time and returns
// the medians over slices of commands per second and of the p50 and p99
// round latency (µs). A stall that hits one slice moves that slice, not the
// run.
func sliceMedians(conns [][]sample, winStart, window time.Duration, n, depth int) (opsPerS, p50, p99 float64) {
	width := window / time.Duration(n)
	lats := make([][]float64, n)
	for _, ss := range conns {
		for _, s := range ss {
			if i := int((s.end - winStart) / width); i >= 0 && i < n {
				lats[i] = append(lats[i], float64(s.lat)/1e3)
			}
		}
	}
	var rate, q50, q99 []float64
	for _, l := range lats {
		rate = append(rate, float64(len(l)*depth)/width.Seconds())
		if len(l) == 0 {
			continue
		}
		sort.Float64s(l)
		q50 = append(q50, percentile(l, 0.50))
		q99 = append(q99, percentile(l, 0.99))
	}
	return median(rate), median(q50), median(q99)
}

// counterOracle checks hot_incr's end state: every counter equals the number
// of incrs the server acknowledged for it, over all connections and phases.
func counterOracle(sp *spec, srv *child, conns []*conn, res *wireResult) error {
	chk := newChecker(sp, srv.ctlR)
	var r round
	for idx := 0; idx < sp.keys; idx++ {
		r.reset()
		c := cmd{kind: opGet, key: idx}
		r.cmds = append(r.cmds, c)
		r.req = sp.encode(r.req, c, nil)
		srv.ctl.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := srv.ctl.Write(r.req); err != nil {
			return err
		}
		if err := chk.readRound(&r); err != nil {
			return err
		}
		var acked uint64
		for _, c := range conns {
			acked += c.chk.acked[idx]
		}
		if chk.seen[idx] != acked {
			chk.fail("counter %d holds %d, %d incrs were acknowledged", idx, chk.seen[idx], acked)
		}
	}
	res.add(chk.tally)
	return nil
}

// selfCPU is this process's user+system CPU time so far, in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
