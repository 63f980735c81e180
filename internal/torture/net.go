package torture

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/server"
	"repro/internal/txobs"
)

// RunNetwork is the end-to-end variant of Run: the same two chaos phases,
// but every operation travels through the TCP front end while the transport
// fault points (connection drops, slow clients, short reads/writes) fire on
// top of the STM/slab/maintenance schedule. Clients model a real peer:
// redial on error, and in phase B retry a store until it is ACKed — the
// invariant being "a STORED reply survives anything short of losing the
// server". The stat-reconciliation check is skipped (a command whose
// connection died mid-reply may or may not have executed); the lost-key,
// refcount, slab-accounting and graceful-drain checks all still apply.
func RunNetwork(cfg Config) *Report {
	cfg = cfg.withDefaults()
	start := time.Now()
	rep := &Report{Branch: cfg.Branch, Seed: cfg.Seed}

	points := append(fault.StmPoints(), fault.EnginePoints()...)
	points = append(points, fault.ServerPoints()...)
	in := fault.RandomSchedule(cfg.Seed, points, cfg.MaxRate)
	// The acceptance triad must fire regardless of the schedule's shape.
	for _, p := range []fault.Point{fault.ConnDrop, fault.ConnSlow, fault.SlabAllocFail} {
		if in.Rate(p) == 0 {
			in.Set(p, cfg.MaxRate/2)
		}
	}
	in.Arm()

	cache := engine.New(engine.Config{
		Branch:    cfg.Branch,
		Shards:    cfg.Shards,
		MemLimit:  cfg.MemLimit,
		HashPower: cfg.HashPower,
		Automove:  true,
		Fault:     in,
		Watchdog:  2 * time.Millisecond,
	})
	cache.Start()

	// Sharded runs watch for domain bleed: an orec conflict between two
	// shards would mean the transport's affinity routing broke isolation.
	var obs *txobs.Observer
	if cfg.Shards > 1 {
		obs = cache.EnableTracing()
	}

	srv, err := server.ListenConfig(cache, server.Config{
		Addr:         "127.0.0.1:0",
		MaxConns:     cfg.Workers + 2,
		IdleTimeout:  2 * time.Second,
		ReadTimeout:  2 * time.Second,
		WriteTimeout: 2 * time.Second,
		DrainTimeout: 5 * time.Second,
		Fault:        in,
		EventLoop:    cfg.EventLoop,
	})
	if err != nil {
		rep.violatef("listen: %v", err)
		cache.Stop()
		return rep
	}

	// Phase A: churn mix over faulty connections; errors mean redial.
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			netChaosWorker(srv.Addr(), cfg, id, rep)
		}(w)
	}
	wg.Wait()

	// Phase B: ACK-retried stable stores; transport faults stay armed, but
	// allocation failure is off so STORED can always eventually be earned.
	in.Set(fault.SlabAllocFail, 0)
	deadline := time.Now().Add(60 * time.Second)
	var mu sync.Mutex
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := &netClient{addr: srv.Addr()}
			defer cl.reset()
			lo := id * cfg.StableKeys / cfg.Workers
			hi := (id + 1) * cfg.StableKeys / cfg.Workers
			for i := lo; i < hi; i++ {
				if err := cl.setAcked(string(stableKey(i)), stableValue(cfg.Seed, i), deadline); err != nil {
					mu.Lock()
					rep.violatef("phase B: %v", err)
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Check phase over a clean transport.
	in.Disarm()
	wk := cache.NewWorker()
	waitExpansion(wk, rep)
	rep.HashExpands = wk.Stats().HashExpands

	if !rep.Failed() {
		cl := &netClient{addr: srv.Addr()}
		checkStableKeysNet(cl, cfg, rep)
		if err := cl.statsSane(); err != nil {
			rep.violatef("stats command: %v", err)
		}
		cl.reset()
	}

	// Graceful drain: Close must return cleanly with no handler leaked.
	if err := srv.Close(); err != nil {
		rep.violatef("graceful drain: Close = %v", err)
	}
	if obs != nil {
		if n := obs.CrossShardOrecConflicts(); n != 0 {
			rep.violatef("cross_shard_orec_conflicts = %d, want 0: shard domains shared an orec", n)
		}
	}
	cache.Stop()
	if err := cache.ValidateQuiescent(); err != nil {
		rep.violatef("structural validation: %v", err)
	}

	rep.FaultsFired = in.TotalFired()
	rep.Faults = in.Summary()
	rep.Elapsed = time.Since(start)
	return rep
}

// netChaosWorker mirrors chaosWorker over the wire. Faults make individual
// ops fail; the worker's only obligation is to keep going.
func netChaosWorker(addr string, cfg Config, id int, rep *Report) {
	cl := &netClient{addr: addr}
	defer cl.reset()
	rng := rngState(cfg.Seed, uint64(id)+0xC0FFEE)
	for op := 0; op < cfg.Ops; op++ {
		r := rng.next()
		key := string(runChurn.key(r))
		switch (r >> 8) % 5 {
		case 0, 1:
			// A reply that arrived whole is verified; one a transport fault
			// cut short is a redial.
			if val, found, err := cl.get(key); err != nil {
				cl.reset()
			} else if found {
				verifyChaos(rep, []byte(key), val)
			}
		case 2, 3:
			val := runChurn.value([]byte(key), r>>24)
			cl.tryCmd(fmt.Sprintf("set %s %d 0 %d\r\n%s\r\n", key, uint32(r), len(val), val))
		default:
			cl.tryCmd("delete " + key + "\r\n")
		}
	}
}

func checkStableKeysNet(cl *netClient, cfg Config, rep *Report) {
	lost, corrupt := 0, 0
	for i := 0; i < cfg.StableKeys; i++ {
		val, found, err := cl.getRetry(string(stableKey(i)), 5)
		if err != nil {
			rep.violatef("check get %s: %v", stableKey(i), err)
			return
		}
		switch {
		case !found:
			lost++
			if lost <= 5 {
				rep.violatef("ACKed stable key %q lost across hash expansion", stableKey(i))
			}
		case string(val) != string(stableValue(cfg.Seed, i)):
			corrupt++
			if corrupt <= 5 {
				rep.violatef("stable key %q corrupted over the wire: got %q", stableKey(i), val)
			}
		}
	}
	if lost > 5 {
		rep.violatef("... and %d more lost keys", lost-5)
	}
	if corrupt > 5 {
		rep.violatef("... and %d more corrupted keys", corrupt-5)
	}
}

// ---------------------------------------------------------------------------
// minimal fault-tolerant text-protocol client

type netClient struct {
	addr string
	conn net.Conn
	r    *bufio.Reader
}

func (c *netClient) ensure() error {
	if c.conn != nil {
		return nil
	}
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		var conn net.Conn
		conn, err = net.Dial("tcp", c.addr)
		if err == nil {
			c.conn = conn
			c.r = bufio.NewReader(conn)
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("dial %s: %v", c.addr, err)
}

func (c *netClient) reset() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.r = nil
	}
}

// tryCmd issues one command and reads one reply line, swallowing failures.
func (c *netClient) tryCmd(cmd string) {
	if c.ensure() != nil {
		return
	}
	c.conn.SetDeadline(time.Now().Add(3 * time.Second))
	if _, err := io.WriteString(c.conn, cmd); err != nil {
		c.reset()
		return
	}
	if _, err := c.r.ReadString('\n'); err != nil {
		c.reset()
	}
}

// get does a single-attempt retrieval: (value, found, transport error).
func (c *netClient) get(key string) ([]byte, bool, error) {
	if err := c.ensure(); err != nil {
		return nil, false, err
	}
	c.conn.SetDeadline(time.Now().Add(3 * time.Second))
	if _, err := io.WriteString(c.conn, "get "+key+"\r\n"); err != nil {
		return nil, false, err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return nil, false, err
	}
	if line == "END\r\n" {
		return nil, false, nil
	}
	if !strings.HasPrefix(line, "VALUE ") {
		return nil, false, fmt.Errorf("get %s: unexpected reply %q", key, line)
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return nil, false, fmt.Errorf("get %s: bad VALUE line %q", key, line)
	}
	n, err := strconv.Atoi(fields[3])
	if err != nil {
		return nil, false, fmt.Errorf("get %s: bad length in %q", key, line)
	}
	val := make([]byte, n+2) // data + CRLF
	if _, err := io.ReadFull(c.r, val); err != nil {
		return nil, false, err
	}
	if end, err := c.r.ReadString('\n'); err != nil || end != "END\r\n" {
		return nil, false, fmt.Errorf("get %s: missing END (%q, %v)", key, end, err)
	}
	return val[:n], true, nil
}

func (c *netClient) getRetry(key string, attempts int) ([]byte, bool, error) {
	var lastErr error
	for a := 0; a < attempts; a++ {
		val, found, err := c.get(key)
		if err == nil {
			return val, found, nil
		}
		lastErr = err
		c.reset()
	}
	return nil, false, lastErr
}

// setAcked stores key=val and retries across any failure until a STORED
// reply is read or the deadline passes. Set is idempotent with a fixed
// value, so retrying a possibly-executed store is safe.
func (c *netClient) setAcked(key string, val []byte, deadline time.Time) error {
	cmd := fmt.Sprintf("set %s 0 0 %d\r\n%s\r\n", key, len(val), val)
	for time.Now().Before(deadline) {
		if err := c.ensure(); err != nil {
			return err
		}
		c.conn.SetDeadline(time.Now().Add(3 * time.Second))
		if _, err := io.WriteString(c.conn, cmd); err != nil {
			c.reset()
			continue
		}
		line, err := c.r.ReadString('\n')
		if err != nil {
			c.reset()
			continue
		}
		if line == "STORED\r\n" {
			return nil
		}
		// Any other reply (out of memory, ERROR after a dropped byte):
		// reset framing and try again.
		c.reset()
	}
	return fmt.Errorf("set %s: no STORED ack before deadline", key)
}

// statsSane fetches `stats` and requires a well-formed STAT...END block that
// includes the counters the hardened front end is supposed to export.
func (c *netClient) statsSane() error {
	if err := c.ensure(); err != nil {
		return err
	}
	c.conn.SetDeadline(time.Now().Add(3 * time.Second))
	if _, err := io.WriteString(c.conn, "stats\r\n"); err != nil {
		return err
	}
	seen := map[string]bool{}
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			return err
		}
		if line == "END\r\n" {
			break
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || fields[0] != "STAT" {
			return fmt.Errorf("bad stats line %q", line)
		}
		seen[fields[1]] = true
	}
	for _, want := range []string{"curr_items", "tm_watchdog_backoff", "tm_watchdog_serialize", "conn_errors_io"} {
		if !seen[want] {
			return fmt.Errorf("stats output missing %q", want)
		}
	}
	return nil
}
