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

func TestMaxConnsBackpressure(t *testing.T) {
	s := startServerConfig(t, engine.Semaphore, Config{MaxConns: 2})

	// Occupy both slots with live connections.
	var held []net.Conn
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "version\r\n")
		if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
			t.Fatalf("held conn %d not served: %v", i, err)
		}
		held = append(held, conn)
	}

	// A third dial connects at TCP level (kernel backlog) but must not be
	// served until a slot frees.
	extra, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer extra.Close()
	fmt.Fprintf(extra, "version\r\n")
	extra.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if _, err := bufio.NewReader(extra).ReadString('\n'); err == nil {
		t.Fatal("third connection served while both slots were held")
	}

	// Free one slot; the queued connection must now be served.
	held[0].Close()
	extra.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(extra).ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "VERSION") {
		t.Fatalf("queued connection not served after slot freed: %q %v", line, err)
	}
}

func TestGracefulDrainFinishesInFlightCommand(t *testing.T) {
	s := startServerConfig(t, engine.IP, Config{DrainTimeout: 5 * time.Second})

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Send a command header; hold back the data block so the command is
	// in flight when Close begins.
	fmt.Fprintf(conn, "set drained 0 0 5\r\nhel")
	time.Sleep(50 * time.Millisecond) // let the server start the command

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()

	time.Sleep(50 * time.Millisecond) // Close is now draining
	fmt.Fprintf(conn, "lo\r\n")
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || line != "STORED\r\n" {
		t.Fatalf("in-flight command not drained: %q %v", line, err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestIdleConnectionsReaped(t *testing.T) {
	s := startServerConfig(t, engine.Semaphore, Config{IdleTimeout: 100 * time.Millisecond})

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// First command succeeds; then sit idle past the timeout.
	fmt.Fprintf(conn, "version\r\n")
	r := bufio.NewReader(conn)
	if _, err := r.ReadString('\n'); err != nil {
		t.Fatalf("first command: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := r.ReadString('\n'); err == nil {
		t.Fatal("idle connection not reaped")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.ConnErrors().Timeout.Load() == 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("conn_errors_timeout = %d, want 1", s.ConnErrors().Timeout.Load())
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
// told "line too long", cut off and counted as a protocol error, on the
// classic transport and on the event loop.
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
		})
	}
}
