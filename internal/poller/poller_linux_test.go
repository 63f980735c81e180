//go:build linux

package poller

import (
	"testing"

	"repro/internal/race"
)

// TestPollerWakeupAllocs holds the epoll poller's request round at zero heap
// allocations: the peer writes, the wait loop wakes and delivers the token,
// the owner reads and re-arms. The wait loop runs once per wakeup for the
// whole server, so anything it allocates per round is paid on every request
// that finds its connection parked.
func TestPollerWakeupAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	events := make(chan Token, 1)
	p, err := NewEpoll(func(tok Token) { events <- tok })
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	client, srv := pair(t)
	tok, err := p.Add(srv)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Arm(tok); err != nil {
		t.Fatal(err)
	}
	msg, buf := []byte("x"), make([]byte, 1)
	round := func() {
		if _, err := client.Write(msg); err != nil {
			t.Fatal(err)
		}
		<-events
		if _, err := srv.Read(buf); err != nil {
			t.Fatal(err)
		}
		if err := p.Arm(tok); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Errorf("%v allocations per wakeup round, want 0", n)
	}
}
