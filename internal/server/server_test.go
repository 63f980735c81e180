package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
)

func startServer(t *testing.T, b engine.Branch) (*Server, *engine.Cache) {
	t.Helper()
	c := engine.New(engine.Config{Branch: b, HashPower: 8})
	c.Start()
	s, err := Listen(c, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() {
		s.Close()
		c.Stop()
	})
	return s, c
}

func roundTrip(t *testing.T, addr, send string, wantPrefix string) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(send)); err != nil {
		t.Fatalf("write: %v", err)
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !strings.HasPrefix(line, wantPrefix) {
		t.Errorf("reply %q, want prefix %q", line, wantPrefix)
	}
	return line
}

func TestServeTextOverTCP(t *testing.T) {
	s, _ := startServer(t, engine.Baseline)
	roundTrip(t, s.Addr(), "set k 0 0 5\r\nhello\r\n", "STORED")
	roundTrip(t, s.Addr(), "version\r\n", "VERSION")
	// Listen with no options serves through the event loop.
	roundTrip(t, s.Addr(), "stats eventloop\r\n", "STAT eventloop 1\r\n")
}

func TestConnectionsShareTheCache(t *testing.T) {
	s, _ := startServer(t, engine.ITOnCommit)
	roundTrip(t, s.Addr(), "set shared 0 0 3\r\nabc\r\n", "STORED")

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "get shared\r\n")
	r := bufio.NewReader(conn)
	line, _ := r.ReadString('\n')
	if !strings.HasPrefix(line, "VALUE shared 0 3") {
		t.Errorf("second connection missed: %q", line)
	}
}

func TestManyConcurrentConnections(t *testing.T) {
	s, _ := startServer(t, engine.IPOnCommit)
	const conns = 16
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for op := 0; op < 30; op++ {
				key := fmt.Sprintf("k-%d-%d", i, op%5)
				fmt.Fprintf(conn, "set %s 0 0 2\r\nvv\r\n", key)
				if line, err := r.ReadString('\n'); err != nil || line != "STORED\r\n" {
					t.Errorf("set: %q %v", line, err)
					return
				}
				fmt.Fprintf(conn, "get %s\r\n", key)
				if line, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(line, "VALUE") {
					t.Errorf("get: %q %v", line, err)
					return
				}
				r.ReadString('\n') // data
				r.ReadString('\n') // END
			}
		}()
	}
	wg.Wait()
}

func TestCloseTerminates(t *testing.T) {
	c := engine.New(engine.Config{Branch: engine.Semaphore, HashPower: 8})
	c.Start()
	defer c.Stop()
	s, err := Listen(c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double Close must be idempotent, got %v", err)
	}
	// The held connection must have been torn down.
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Error("connection still alive after Close")
	}
}

func startServerConfig(t *testing.T, b engine.Branch, cfg Config) *Server {
	t.Helper()
	c := engine.New(engine.Config{Branch: b, HashPower: 8})
	c.Start()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := ListenConfig(c, cfg)
	if err != nil {
		t.Fatalf("ListenConfig: %v", err)
	}
	t.Cleanup(func() {
		s.Close()
		c.Stop()
	})
	return s
}

func TestAcceptCloseRace(t *testing.T) {
	// Hammer the accept/Close interleaving: every dialed connection must be
	// torn down even when it lands concurrently with Close. Run detects a
	// leak as a goroutine writing to a closed wg or a stuck wg.Wait.
	for i := 0; i < 20; i++ {
		c := engine.New(engine.Config{Branch: engine.Semaphore, HashPower: 8})
		c.Start()
		s, err := Listen(c, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for d := 0; d < 4; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn, err := net.Dial("tcp", s.Addr())
				if err == nil {
					conn.Close()
				}
			}()
		}
		s.Close() // must not leak a handler past wg.Wait
		wg.Wait()
		c.Stop()
	}
}

func TestStatsReportsConnErrors(t *testing.T) {
	s := startServerConfig(t, engine.Semaphore, Config{})
	// Provoke a protocol error: a binary frame with a truncated body.
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, 24)
	hdr[0] = 0x80
	hdr[11] = 10 // bodyLen=10, never sent
	conn.Write(hdr)
	conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && s.ConnErrors().Protocol.Load() == 0 {
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.ConnErrors().Protocol.Load(); got != 1 {
		t.Fatalf("conn_errors_protocol = %d, want 1", got)
	}

	line := roundTrip(t, s.Addr(), "stats\r\n", "STAT")
	_ = line
}

// TestOverlongLineClosesConnection: a client that never sends a newline is
// told "line too long", cut off and counted as a protocol error. The
// deprecated Config.EventLoop field is a no-op, so both of its values must
// serve through the event loop and behave alike.
func TestOverlongLineClosesConnection(t *testing.T) {
	for _, evloop := range []bool{false, true} {
		t.Run(fmt.Sprintf("eventloop=%v", evloop), func(t *testing.T) {
			s := startServerConfig(t, engine.ITOnCommit, Config{EventLoop: evloop})
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			go func() {
				// The server hangs up mid-flood; the write error is expected.
				conn.Write(bytes.Repeat([]byte("x"), 1<<20))
			}()
			reply, err := io.ReadAll(conn)
			if string(reply) != "CLIENT_ERROR line too long\r\n" {
				t.Fatalf("reply %q (%v), want the line-too-long error and a close", reply, err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) && s.ConnErrors().Protocol.Load() == 0 {
				time.Sleep(10 * time.Millisecond)
			}
			if got := s.ConnErrors().Protocol.Load(); got != 1 {
				t.Errorf("conn_errors_protocol = %d, want 1", got)
			}
			roundTrip(t, s.Addr(), "stats eventloop\r\n", "STAT eventloop 1\r\n")
		})
	}
}
