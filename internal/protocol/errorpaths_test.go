package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
)

// Error-path coverage: each malformed input must produce the
// memcached-correct error response AND leave the connection usable for the
// command that follows it on the same stream.

func TestBadBinaryMagicKeepsConnectionUsable(t *testing.T) {
	// A frame with a high-but-wrong magic byte: header layout is trusted for
	// framing, the frame is drained and refused, and the next (valid) frame
	// is served normally.
	bad := make([]byte, 24+3)
	bad[0] = 0x90
	bad[1] = 0x42
	binary.BigEndian.PutUint32(bad[8:12], 3) // 3-byte body follows
	copy(bad[24:], "xyz")

	extras := make([]byte, 8)
	res := runBinary(t,
		bad,
		binFrame(OpSet, extras, []byte("k"), []byte("v"), 0),
		binFrame(OpGet, nil, []byte("k"), nil, 0),
	)
	if len(res) != 3 {
		t.Fatalf("got %d responses, want 3", len(res))
	}
	if res[0].status != StatusUnknownCommand {
		t.Errorf("bad magic status = %#x, want %#x", res[0].status, StatusUnknownCommand)
	}
	if res[1].status != StatusOK || res[2].status != StatusOK {
		t.Errorf("connection unusable after bad magic: set=%#x get=%#x", res[1].status, res[2].status)
	}
	if string(res[2].value) != "v" {
		t.Errorf("get after bad magic returned %q", res[2].value)
	}
}

func TestBadBinaryMagicInsaneLengthKillsConnection(t *testing.T) {
	// Wrong magic with an implausible body length: framing is lost, the
	// connection must die with a protocol-classified error.
	bad := make([]byte, 24)
	bad[0] = 0xff
	binary.BigEndian.PutUint32(bad[8:12], 0xffffffff)

	c := engine.New(engine.Config{Branch: engine.Semaphore, HashPower: 8})
	c.Start()
	defer c.Stop()
	d := &duplex{in: bytes.NewBuffer(bad), out: &bytes.Buffer{}}
	err := NewConn(c.NewWorker(), d).Serve()
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("Serve = %v, want ErrProtocol", err)
	}
}

func TestOversizedKeyText(t *testing.T) {
	longKey := strings.Repeat("k", MaxKeyLen+1)
	out := runText(t, "set "+longKey+" 0 0 3\r\nabc\r\nversion\r\n")
	if !strings.HasPrefix(out, "CLIENT_ERROR bad command line format\r\n") {
		t.Errorf("oversized key reply = %q", out)
	}
	if !strings.Contains(out, "VERSION") {
		t.Errorf("connection unusable after oversized key: %q", out)
	}
	// get with an oversized key has no data block to resync past.
	out = runText(t, "get "+longKey+"\r\nversion\r\n")
	if !strings.HasPrefix(out, "CLIENT_ERROR key too long\r\n") || !strings.Contains(out, "VERSION") {
		t.Errorf("oversized get key: %q", out)
	}
}

func TestOversizedKeyBinary(t *testing.T) {
	longKey := bytes.Repeat([]byte("k"), MaxKeyLen+1)
	extras := make([]byte, 8)
	res := runBinary(t,
		binFrame(OpSet, extras, longKey, []byte("v"), 0),
		binFrame(OpVersion, nil, nil, nil, 0),
	)
	if len(res) != 2 {
		t.Fatalf("got %d responses, want 2", len(res))
	}
	if res[0].status != StatusInvalidArgs {
		t.Errorf("oversized key status = %#x, want %#x", res[0].status, StatusInvalidArgs)
	}
	if res[1].status != StatusOK {
		t.Errorf("connection unusable after oversized key: %#x", res[1].status)
	}
}

func TestNonNumericIncr(t *testing.T) {
	// Non-numeric stored value.
	out := runText(t, "set n 0 0 3\r\nabc\r\nincr n 1\r\nversion\r\n")
	if !strings.Contains(out, "CLIENT_ERROR cannot increment or decrement non-numeric value\r\n") {
		t.Errorf("incr on non-numeric value: %q", out)
	}
	if !strings.Contains(out, "VERSION") {
		t.Errorf("connection unusable after bad incr: %q", out)
	}
	// Non-numeric delta argument.
	out = runText(t, "set n 0 0 1\r\n5\r\nincr n abc\r\nincr n 2\r\n")
	if !strings.Contains(out, "CLIENT_ERROR invalid numeric delta argument\r\n") {
		t.Errorf("incr with non-numeric delta: %q", out)
	}
	if !strings.HasSuffix(out, "7\r\n") {
		t.Errorf("connection unusable after bad delta: %q", out)
	}
}

func TestTruncatedSetDataBlock(t *testing.T) {
	// Data block shorter than declared: the declared bytes swallow part of
	// the next line, the terminator check fails, and reading to the line
	// boundary resyncs the stream so the following command still runs.
	out := runText(t, "set k 0 0 5\r\nab\r\njunk\r\nversion\r\n")
	if !strings.HasPrefix(out, "CLIENT_ERROR bad data chunk\r\n") {
		t.Errorf("truncated data block reply = %q", out)
	}
	if !strings.Contains(out, "VERSION") {
		t.Errorf("connection unusable after truncated data block: %q", out)
	}

	// Truncated by disconnect mid-block: connection-fatal, classified as a
	// protocol error (the frame can never complete).
	c := engine.New(engine.Config{Branch: engine.Semaphore, HashPower: 8})
	c.Start()
	defer c.Stop()
	d := &duplex{in: bytes.NewBufferString("set k 0 0 5\r\nab"), out: &bytes.Buffer{}}
	err := NewConn(c.NewWorker(), d).Serve()
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("Serve = %v, want ErrProtocol", err)
	}
}

// TestCommandLineIsBounded: a line longer than the read buffer is gathered in
// scratch — a get of 100 maximal keys is legitimate — but only up to
// maxLineLen. Past it the client is told why and the connection dies with a
// protocol-classified error, however the connection holds its buffers.
func TestCommandLineIsBounded(t *testing.T) {
	for name, newConn := range map[string]func(*engine.Worker, *duplex) *Conn{
		"classic": func(w *engine.Worker, d *duplex) *Conn { return NewConn(w, d) },
		"pooled": func(w *engine.Worker, d *duplex) *Conn {
			pc := NewConnPooled(d)
			pc.SetWorker(w)
			return pc
		},
	} {
		t.Run(name, func(t *testing.T) {
			c := engine.New(engine.Config{Branch: engine.ITOnCommit, HashPower: 8})
			c.Start()
			defer c.Stop()

			// 100 keys of 250 bytes: 25 KB on one line, six read buffers.
			var get strings.Builder
			get.WriteString("get")
			for i := 0; i < 100; i++ {
				get.WriteString(" " + strings.Repeat("k", MaxKeyLen-3) + fmt.Sprintf("%03d", i))
			}
			last := strings.Repeat("k", MaxKeyLen-3) + "099"
			script := "set " + last + " 0 0 2\r\nhi\r\n" + get.String() + "\r\nversion\r\n"
			d := &duplex{in: bytes.NewBufferString(script), out: &bytes.Buffer{}}
			pc := newConn(c.NewWorker(), d)
			if err := pc.Serve(); err != nil {
				t.Fatalf("Serve: %v", err)
			}
			pc.ReleaseBuffers(true)
			if out := d.out.String(); !strings.Contains(out, "VALUE "+last+" 0 2\r\nhi\r\nEND\r\n") || !strings.Contains(out, "VERSION") {
				t.Errorf("100-key get on one long line: %q", out)
			}

			// No newline, ever: the server stops reading at the bound.
			flood := "get " + strings.Repeat("x", 2*maxLineLen)
			d = &duplex{in: bytes.NewBufferString("version\r\n" + flood), out: &bytes.Buffer{}}
			pc = newConn(c.NewWorker(), d)
			err := pc.Serve()
			pc.ReleaseBuffers(true)
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("Serve = %v, want ErrProtocol", err)
			}
			if out := d.out.String(); !strings.HasSuffix(out, "CLIENT_ERROR line too long\r\n") || !strings.HasPrefix(out, "VERSION") {
				t.Errorf("over-long line reply = %q", out)
			}
			if left := d.in.Len(); left < maxLineLen/2 {
				t.Errorf("%d bytes of the flood left unread: the server kept reading past its bound", left)
			}
		})
	}
}
