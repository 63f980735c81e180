package protocol

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/race"
)

// replayRW is an in-memory transport that serves the same request bytes over
// and over and keeps only the last reply. It offers the gathered write the
// real transport offers, so large get replies take the path they take over
// TCP.
type replayRW struct {
	req, in []byte
	out     bytes.Buffer
}

func (m *replayRW) rewind() { m.in = m.req; m.out.Reset() }

func (m *replayRW) Read(p []byte) (int, error) {
	if len(m.in) == 0 {
		return 0, io.EOF
	}
	n := copy(p, m.in)
	m.in = m.in[n:]
	return n, nil
}

func (m *replayRW) Write(p []byte) (int, error) { return m.out.Write(p) }

func (m *replayRW) WriteBuffers(bufs net.Buffers) (int64, error) {
	var n int64
	for _, b := range bufs {
		m.out.Write(b)
		n += int64(len(b))
	}
	return n, nil
}

// TestAllocsRequestPath holds the request path to its allocation ceilings on
// both protocols: after a warm-up that grows the scratch, a get allocates
// nothing, and neither does a set: its chunk is a recycled one.
func TestAllocsRequestPath(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	c := engine.New(engine.Config{Branch: engine.ITOnCommit, HashPower: 8})
	c.Start()
	defer c.Stop()

	var multi strings.Builder
	multi.WriteString("get")
	setup := "set k 5 0 64\r\n" + strings.Repeat("v", 64) + "\r\n"
	for i := 0; i < 24; i++ {
		fmt.Fprintf(&multi, " multi-%02d", i)
		setup += fmt.Sprintf("set multi-%02d %d 0 256\r\n%s\r\n", i, i, strings.Repeat("m", 256))
	}
	multi.WriteString("\r\n")
	if out := runTextOn(t, c, setup); strings.Count(out, "STORED\r\n") != 25 {
		t.Fatalf("setup replies: %q", out)
	}

	for _, tc := range []struct {
		name    string
		req     []byte
		want    string // the reply's prefix
		ceiling float64
	}{
		{"text get", []byte("get k\r\n"), "VALUE k 5 64\r\n", 0},
		{"text get of 24 keys", []byte(multi.String()), "VALUE multi-00 0 256\r\n", 0},
		{"text set", []byte("set k 5 0 64\r\n" + strings.Repeat("v", 64) + "\r\n"), "STORED\r\n", 0},
		{"text incr", []byte("incr n 1\r\n"), "", 0},
		{"binary get", binFrame(OpGet, nil, []byte("k"), nil, 0), "\x81\x00", 0},
		{"binary set", binFrame(OpSet, make([]byte, 8), []byte("k"), bytes.Repeat([]byte("v"), 64), 0), "\x81\x01", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runTextOn(t, c, "set n 0 0 1\r\n0\r\n")
			rw := &replayRW{req: tc.req}
			pc := NewConn(c.NewWorker(), rw)
			serve := func() {
				rw.rewind()
				if err := pc.ServeOne(); err != nil {
					t.Fatalf("ServeOne: %v", err)
				}
				if err := pc.Flush(); err != nil {
					t.Fatalf("Flush: %v", err)
				}
				if !bytes.HasPrefix(rw.out.Bytes(), []byte(tc.want)) {
					t.Fatalf("reply %q, want prefix %q", rw.out.Bytes(), tc.want)
				}
			}
			serve() // warm-up
			if n := testing.AllocsPerRun(100, serve); n > tc.ceiling {
				t.Errorf("%.1f allocs per command, want <= %.0f", n, tc.ceiling)
			}
		})
	}
}
