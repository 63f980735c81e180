package client_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/server"
)

// startServer boots a wire-transaction-capable server on a loopback port.
func startServer(t *testing.T, branch engine.Branch, shards int) string {
	t.Helper()
	c := engine.New(engine.Config{Branch: branch, HashPower: 10, Shards: shards, MemLimit: 32 << 20})
	c.Start()
	s, err := server.Listen(c, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() {
		s.Close()
		c.Stop()
	})
	return s.Addr()
}

func dial(t *testing.T, addr string, opts ...client.Option) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, opts...)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBasicOps(t *testing.T) {
	addr := startServer(t, engine.ITMax, 2)
	c := dial(t, addr)

	if err := c.Set("k", []byte("v1")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	v, ok, err := c.Get("k")
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	if err := c.Add("k", []byte("x")); !errors.Is(err, client.ErrNotStored) {
		t.Fatalf("Add on existing = %v, want client.ErrNotStored", err)
	}
	items, err := c.Gets("k", "missing")
	if err != nil || len(items) != 1 || items[0].CAS == 0 {
		t.Fatalf("Gets = %+v, %v", items, err)
	}
	if err := c.CompareAndSwap("k", []byte("v2"), items[0].CAS); err != nil {
		t.Fatalf("CAS: %v", err)
	}
	if err := c.CompareAndSwap("k", []byte("v3"), items[0].CAS); !errors.Is(err, client.ErrCASConflict) {
		t.Fatalf("stale CAS = %v, want client.ErrCASConflict", err)
	}
	if err := c.Set("n", []byte("10")); err != nil {
		t.Fatalf("Set n: %v", err)
	}
	if v, err := c.Incr("n", 5); err != nil || v != 15 {
		t.Fatalf("Incr = %d, %v", v, err)
	}
	if v, err := c.Decr("n", 3); err != nil || v != 12 {
		t.Fatalf("Decr = %d, %v", v, err)
	}
	if ok, err := c.Delete("k"); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if _, ok, _ := c.Get("k"); ok {
		t.Fatal("k survived delete")
	}
	if ver, err := c.Version(); err != nil || ver == "" {
		t.Fatalf("Version = %q, %v", ver, err)
	}
}

func TestTxCommit(t *testing.T) {
	addr := startServer(t, engine.ITMax, 4)
	c := dial(t, addr)
	if err := c.Set("a", []byte("100")); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("b", []byte("100")); err != nil {
		t.Fatal(err)
	}

	err := c.Tx(func(tx *client.Tx) error {
		v, ok, err := tx.Get("a")
		if err != nil || !ok {
			return fmt.Errorf("read a: %q %v %v", v, ok, err)
		}
		tx.DecrBy("a", 30)
		tx.IncrBy("b", 30)
		tx.Set("log", []byte("a->b:30"))
		return nil
	})
	if err != nil {
		t.Fatalf("Tx: %v", err)
	}
	for k, want := range map[string]string{"a": "70", "b": "130", "log": "a->b:30"} {
		v, ok, err := c.Get(k)
		if err != nil || !ok || string(v) != want {
			t.Fatalf("%s = %q, %v, %v (want %q)", k, v, ok, err, want)
		}
	}
}

func TestTxReadYourWrites(t *testing.T) {
	addr := startServer(t, engine.ITMax, 2)
	c := dial(t, addr)
	if err := c.Set("k", []byte("committed")); err != nil {
		t.Fatal(err)
	}
	err := c.Tx(func(tx *client.Tx) error {
		tx.Set("k", []byte("pending"))
		v, ok, err := tx.Get("k")
		if err != nil || !ok || string(v) != "pending" {
			return fmt.Errorf("read-your-writes: %q %v %v", v, ok, err)
		}
		tx.Delete("k")
		if _, ok, _ := tx.Get("k"); ok {
			return fmt.Errorf("read-your-deletes failed")
		}
		// A key never written in this tx reads committed state.
		if _, ok, err := tx.Get("other"); ok || err != nil {
			return fmt.Errorf("other = %v %v", ok, err)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Tx: %v", err)
	}
	if _, ok, _ := c.Get("k"); ok {
		t.Fatal("delete did not commit")
	}
}

func TestTxCallbackErrorAborts(t *testing.T) {
	addr := startServer(t, engine.ITMax, 2)
	c := dial(t, addr)
	boom := errors.New("boom")
	err := c.Tx(func(tx *client.Tx) error {
		tx.Set("never", []byte("x"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Tx = %v, want boom", err)
	}
	if _, ok, _ := c.Get("never"); ok {
		t.Fatal("aborted transaction committed a write")
	}
	// The connection is reusable after an abort.
	if err := c.Set("after", []byte("y")); err != nil {
		t.Fatalf("Set after abort: %v", err)
	}
}

func TestTxConflictRetries(t *testing.T) {
	addr := startServer(t, engine.ITMax, 2)
	c := dial(t, addr)
	interferer := dial(t, addr)
	if err := c.Set("hot", []byte("0")); err != nil {
		t.Fatal(err)
	}

	// First attempt reads, then the interferer moves the key, so commit
	// conflicts; the retry sees the new value and wins.
	attempts := 0
	err := c.Tx(func(tx *client.Tx) error {
		attempts++
		if _, _, err := tx.Get("hot"); err != nil {
			return err
		}
		if attempts == 1 {
			if err := interferer.Set("hot", []byte("moved")); err != nil {
				return err
			}
		}
		tx.Set("out", []byte("done"))
		return nil
	})
	if err != nil {
		t.Fatalf("Tx: %v", err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
	if v, ok, _ := c.Get("out"); !ok || string(v) != "done" {
		t.Fatalf("out = %q, %v", v, ok)
	}
}

func TestTxConflictExhaustsRetries(t *testing.T) {
	addr := startServer(t, engine.ITMax, 2)
	c := dial(t, addr, client.WithMaxTxRetries(2))
	interferer := dial(t, addr)
	if err := c.Set("hot", []byte("0")); err != nil {
		t.Fatal(err)
	}
	err := c.Tx(func(tx *client.Tx) error {
		if _, _, err := tx.Get("hot"); err != nil {
			return err
		}
		// Invalidate our own read set every single attempt.
		if _, err := interferer.Incr("hot", 1); err != nil {
			return err
		}
		return nil
	})
	if !errors.Is(err, client.ErrConflict) {
		t.Fatalf("Tx = %v, want client.ErrConflict", err)
	}
	var ce *client.ConflictError
	if !errors.As(err, &ce) || ce.Key != "hot" {
		t.Fatalf("conflict error = %#v", err)
	}
}

func TestTxNotSupported(t *testing.T) {
	addr := startServer(t, engine.Baseline, 1)
	c := dial(t, addr)
	err := c.Tx(func(tx *client.Tx) error { return nil })
	if !errors.Is(err, client.ErrNotSupported) {
		t.Fatalf("Tx on Baseline = %v, want client.ErrNotSupported", err)
	}
	// Plain commands still work on lock branches.
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatalf("Set: %v", err)
	}
}

// TestTxConcurrentTransfers drives concurrent conflicting cross-shard
// transfers through the full client/server stack and checks conservation:
// the end-to-end version of the engine-level invariant test.
func TestTxConcurrentTransfers(t *testing.T) {
	addr := startServer(t, engine.ITMax, 4)
	seed := dial(t, addr)
	const accounts = 6
	const perAccount = 500
	for i := 0; i < accounts; i++ {
		if err := seed.Set(fmt.Sprintf("acct%d", i), []byte(fmt.Sprint(perAccount))); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 4
	const transfersEach = 40
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.WithMaxTxRetries(50))
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for i := 0; i < transfersEach; i++ {
				from := fmt.Sprintf("acct%d", (g+i)%accounts)
				to := fmt.Sprintf("acct%d", (g+i+1+g%2)%accounts)
				if from == to {
					continue
				}
				err := c.Tx(func(tx *client.Tx) error {
					v, ok, err := tx.Get(from)
					if err != nil {
						return err
					}
					if !ok || string(v) == "0" {
						return nil // insufficient funds: commit empty read-only tx
					}
					tx.DecrBy(from, 1)
					tx.IncrBy(to, 1)
					return nil
				})
				if err != nil && !errors.Is(err, client.ErrConflict) {
					errCh <- fmt.Errorf("worker %d transfer %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	total := 0
	for i := 0; i < accounts; i++ {
		v, ok, err := seed.Get(fmt.Sprintf("acct%d", i))
		if err != nil || !ok {
			t.Fatalf("acct%d: %v %v", i, ok, err)
		}
		var n int
		fmt.Sscanf(string(v), "%d", &n)
		total += n
	}
	if total != accounts*perAccount {
		t.Fatalf("total = %d, want %d", total, accounts*perAccount)
	}
	lines, err := seed.Stats("")
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	stats := statMap(lines)
	if stats["tx_commits"] == "0" || stats["tx_commits"] == "" {
		t.Fatalf("tx_commits = %q", stats["tx_commits"])
	}
	t.Logf("tx_commits=%s tx_conflicts=%s", stats["tx_commits"], stats["tx_conflicts"])
}

func statMap(lines []client.Stat) map[string]string {
	m := make(map[string]string, len(lines))
	for _, st := range lines {
		m[st.Key] = st.Value
	}
	return m
}

// TestStatsGroups: Stats reads a named group in server order, and a group
// the server does not know returns a *ServerReplyError at once instead of
// waiting for an END that never comes; the connection stays usable.
func TestStatsGroups(t *testing.T) {
	c := dial(t, startServer(t, engine.ITMax, 2))
	lines, err := c.Stats("tm")
	if err != nil {
		t.Fatalf("Stats(tm): %v", err)
	}
	if m := statMap(lines); m["shards"] != "2" || m["shard_1_commits"] == "" {
		t.Fatalf("stats tm = %v", lines)
	}
	if lines[0].Key != "branch" || lines[0].Value != "it-max" {
		t.Fatalf("stats tm starts with %+v, want branch it-max", lines[0])
	}

	done := make(chan error, 1)
	go func() {
		_, err := c.Stats("nosuch")
		done <- err
	}()
	select {
	case err := <-done:
		var re *client.ServerReplyError
		if !errors.As(err, &re) || re.Line != "ERROR" {
			t.Fatalf("Stats(nosuch) = %v, want *ServerReplyError ERROR", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stats(nosuch) still waiting after 5s")
	}
	if v, err := c.Version(); err != nil || v == "" {
		t.Fatalf("Version after ERROR = %q, %v", v, err)
	}
}
