package poller

import (
	"io"
	"net"
	"syscall"
	"testing"
	"time"
)

func counterPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		server, err = ln.Accept()
	}()
	client, cerr := net.Dial("tcp", ln.Addr().String())
	if cerr != nil {
		t.Fatal(cerr)
	}
	<-done
	if err != nil {
		t.Fatal(err)
	}
	return client, server
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func awaitReady(t *testing.T, ch chan Token, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timeout waiting for readiness delivery (%s)", what)
	}
}

// runCounterScenario drives one poller implementation through a fixed
// two-phase script and returns the deterministic counters (probes,
// synthesized) it ends with. Wakeups are asserted as lower bounds inside
// (the at-least-once contract allows duplicate deliveries), but probes and
// synthesized are exact: one probe per Arm, one synthesized delivery for
// the Arm that found pending input.
func runCounterScenario(t *testing.T, name string, mk func(func(Token)) (Poller, error)) Counters {
	t.Helper()
	readyCh := make(chan Token, 64)
	p, err := mk(func(tok Token) { readyCh <- tok })
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer p.Close()

	client, server := counterPair(t)
	defer client.Close()
	defer server.Close()

	// Phase 1: input is already pending when Arm runs, so the Arm probe
	// must synthesize the delivery (the event edge-triggered epoll would
	// otherwise never fire again).
	if _, err := client.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	sc := server.(syscall.Conn)
	rc, err := sc.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	// Park outside the poller until the bytes are visible on the server
	// side, so the Arm probe deterministically finds them.
	if _, err := waitReadable(rc); err != nil {
		t.Fatal(err)
	}
	tok, err := p.Add(server)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Arm(tok); err != nil {
		t.Fatal(err)
	}
	awaitReady(t, readyCh, name+" phase 1")
	c := p.Counters()
	if c.Probes != 1 || c.Synthesized != 1 || c.Wakeups < 1 {
		t.Fatalf("%s phase 1: %+v, want probes=1 synthesized=1 wakeups≥1", name, c)
	}

	// Phase 2: the buffer is drained before Arm, so the probe finds
	// nothing; the later write must arrive as a plain wakeup, never as a
	// synthesized delivery.
	if _, err := io.ReadFull(server, make([]byte, 3)); err != nil {
		t.Fatal(err)
	}
	if err := p.Arm(tok); err != nil {
		t.Fatal(err)
	}
	waitCond(t, name+" second probe", func() bool { return p.Counters().Probes == 2 })
	if c := p.Counters(); c.Synthesized != 1 {
		t.Fatalf("%s phase 2 pre-write: %+v, empty-buffer probe must not synthesize", name, c)
	}
	if _, err := client.Write([]byte("xy")); err != nil {
		t.Fatal(err)
	}
	awaitReady(t, readyCh, name+" phase 2")
	c = p.Counters()
	if c.Probes != 2 || c.Synthesized != 1 || c.Wakeups < 2 {
		t.Fatalf("%s phase 2: %+v, want probes=2 synthesized=1 wakeups≥2", name, c)
	}

	// Reset clears all three (stats-reset semantics).
	p.ResetCounters()
	if z := p.Counters(); z != (Counters{}) {
		t.Fatalf("%s after reset: %+v", name, z)
	}
	return c
}

// TestPollerCounterParity is the cross-implementation contract: on linux
// the platform poller is epoll and NewFallback is the portable goroutine
// parker, and both must report identical Probes/Synthesized counts for the
// identical readiness script — otherwise dashboards lie off-linux. (Off
// linux both constructors build the fallback and the parity is trivial.)
func TestPollerCounterParity(t *testing.T) {
	platform := runCounterScenario(t, "platform", New)
	fallback := runCounterScenario(t, "fallback", NewFallback)
	if platform.Probes != fallback.Probes || platform.Synthesized != fallback.Synthesized {
		t.Fatalf("counter semantics diverge: platform %+v vs fallback %+v", platform, fallback)
	}
}
