package protocol

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/engine"
)

// duplex is an in-memory transport: the handler reads from `in` and writes to
// `out`.
type duplex struct {
	in  *bytes.Buffer
	out *bytes.Buffer
}

func (d *duplex) Read(p []byte) (int, error) {
	if d.in.Len() == 0 {
		return 0, io.EOF
	}
	return d.in.Read(p)
}

func (d *duplex) Write(p []byte) (int, error) { return d.out.Write(p) }

// runText feeds a script of text commands through a fresh cache and returns
// the full response stream.
func runText(t *testing.T, script string) string {
	t.Helper()
	c := engine.New(engine.Config{Branch: engine.ITOnCommit, HashPower: 8})
	c.Start()
	defer c.Stop()
	d := &duplex{in: bytes.NewBufferString(script), out: &bytes.Buffer{}}
	if err := NewConn(c.NewWorker(), d).Serve(); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	return d.out.String()
}

func TestTextSetGet(t *testing.T) {
	out := runText(t, "set foo 7 0 5\r\nhello\r\nget foo\r\n")
	want := "STORED\r\nVALUE foo 7 5\r\nhello\r\nEND\r\n"
	if out != want {
		t.Errorf("out = %q, want %q", out, want)
	}
}

func TestTextGetMiss(t *testing.T) {
	if out := runText(t, "get nothing\r\n"); out != "END\r\n" {
		t.Errorf("out = %q", out)
	}
}

func TestTextMultiGet(t *testing.T) {
	out := runText(t, "set a 0 0 1\r\nx\r\nset b 0 0 1\r\ny\r\nget a b c\r\n")
	if !strings.Contains(out, "VALUE a 0 1\r\nx\r\n") || !strings.Contains(out, "VALUE b 0 1\r\ny\r\n") {
		t.Errorf("multi-get out = %q", out)
	}
	if strings.Contains(out, "VALUE c") {
		t.Errorf("miss returned a VALUE: %q", out)
	}
}

func TestTextGetsReturnsCAS(t *testing.T) {
	out := runText(t, "set a 0 0 1\r\nx\r\ngets a\r\n")
	if !strings.Contains(out, "VALUE a 0 1 ") {
		t.Errorf("gets out = %q", out)
	}
}

func TestTextCASFlow(t *testing.T) {
	out := runText(t, "set a 0 0 1\r\nx\r\ngets a\r\n")
	// Extract the cas token.
	var key string
	var flags, n int
	var cas uint64
	lines := strings.Split(out, "\r\n")
	found := false
	for _, l := range lines {
		if strings.HasPrefix(l, "VALUE") {
			if _, err := fmtSscanf(l, &key, &flags, &n, &cas); err != nil {
				t.Fatalf("parse %q: %v", l, err)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no VALUE line in %q", out)
	}
}

func fmtSscanf(l string, key *string, flags, n *int, cas *uint64) (int, error) {
	var tag string
	parts := strings.Fields(l)
	if len(parts) != 5 {
		return 0, io.ErrUnexpectedEOF
	}
	tag = parts[0]
	_ = tag
	*key = parts[1]
	var err error
	if _, err = parseInt(parts[2], flags); err != nil {
		return 0, err
	}
	if _, err = parseInt(parts[3], n); err != nil {
		return 0, err
	}
	var c int
	if _, err = parseInt(parts[4], &c); err != nil {
		return 0, err
	}
	*cas = uint64(c)
	return 5, nil
}

func parseInt(s string, out *int) (int, error) {
	v := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, io.ErrUnexpectedEOF
		}
		v = v*10 + int(r-'0')
	}
	*out = v
	return v, nil
}

func TestTextStorageVariants(t *testing.T) {
	out := runText(t, strings.Join([]string{
		"add k 0 0 1\r\na",
		"add k 0 0 1\r\nb",
		"replace k 0 0 1\r\nc",
		"append k 0 0 1\r\nd",
		"prepend k 0 0 1\r\ne",
		"get k",
	}, "\r\n")+"\r\n")
	wantSeq := []string{"STORED", "NOT_STORED", "STORED", "STORED", "STORED", "VALUE k 0 3", "ecd", "END"}
	got := strings.Split(strings.TrimSuffix(out, "\r\n"), "\r\n")
	if len(got) != len(wantSeq) {
		t.Fatalf("got %d lines %q", len(got), out)
	}
	for i := range wantSeq {
		if got[i] != wantSeq[i] {
			t.Errorf("line %d = %q, want %q", i, got[i], wantSeq[i])
		}
	}
}

func TestTextDeleteIncrDecrTouch(t *testing.T) {
	out := runText(t, strings.Join([]string{
		"set n 0 0 2\r\n10",
		"incr n 5",
		"decr n 100",
		"incr n 3",
		"delete n",
		"delete n",
		"incr n 1",
		"touch n 100",
	}, "\r\n")+"\r\n")
	want := "STORED\r\n15\r\n0\r\n3\r\nDELETED\r\nNOT_FOUND\r\nNOT_FOUND\r\nNOT_FOUND\r\n"
	if out != want {
		t.Errorf("out = %q, want %q", out, want)
	}
}

func TestTextNoreply(t *testing.T) {
	out := runText(t, "set a 0 0 1 noreply\r\nx\r\nget a\r\n")
	want := "VALUE a 0 1\r\nx\r\nEND\r\n"
	if out != want {
		t.Errorf("out = %q, want %q", out, want)
	}
}

func TestTextErrors(t *testing.T) {
	if out := runText(t, "bogus\r\n"); out != "ERROR\r\n" {
		t.Errorf("unknown command out = %q", out)
	}
	if out := runText(t, "incr k notanumber\r\n"); !strings.HasPrefix(out, "CLIENT_ERROR") {
		t.Errorf("bad delta out = %q", out)
	}
	if out := runText(t, "set k 0 0\r\n"); out != "ERROR\r\n" {
		t.Errorf("short set out = %q", out)
	}
}

func TestTextStatsAndVersion(t *testing.T) {
	out := runText(t, "set a 0 0 1\r\nx\r\nget a\r\nstats\r\nversion\r\n")
	if !strings.Contains(out, "STAT cmd_get 1\r\n") || !strings.Contains(out, "STAT get_hits 1\r\n") {
		t.Errorf("stats missing counters: %q", out)
	}
	if !strings.Contains(out, "STAT curr_items 1\r\n") {
		t.Errorf("stats missing curr_items: %q", out)
	}
	if !strings.Contains(out, "VERSION "+Version+"\r\n") {
		t.Errorf("version missing: %q", out)
	}
}

// TestTextStatsGroups: every stats group the server knows answers with its
// own block, and a group it does not know — including the retired feedback
// controller's, request tracer's and workload fingerprint's groups — answers
// ERROR, as memcached does, rather than the general stats block.
func TestTextStatsGroups(t *testing.T) {
	for _, group := range []string{"", "reset", "slabs", "tm", "conflicts", "latency", "eventloop"} {
		cmd := strings.TrimSpace("stats " + group)
		out := runText(t, cmd+"\r\n")
		want := "END\r\n"
		if group == "reset" {
			want = "RESET\r\n"
		}
		if !strings.HasSuffix(out, want) {
			t.Errorf("%q: out = %q, want a block ending in %q", cmd, out, want)
		}
	}
	retired := "tm" + "ctl"      // the removed feedback controller's group
	retiredLog := "slow" + "log" // the removed request tracer's group
	for _, group := range []string{retired, retiredLog, "fingerprint", "nosuch"} {
		if out := runText(t, "stats "+group+"\r\n"); out != "ERROR\r\n" {
			t.Errorf("stats %s: out = %q, want ERROR", group, out)
		}
	}
	// The connection survives the error.
	if out := runText(t, "stats nosuch\r\nversion\r\n"); out != "ERROR\r\nVERSION "+Version+"\r\n" {
		t.Errorf("after unknown group: out = %q", out)
	}
}

func TestTextFlushAll(t *testing.T) {
	out := runText(t, "set a 0 0 1\r\nx\r\nflush_all\r\nget a\r\n")
	if !strings.HasSuffix(out, "OK\r\nEND\r\n") {
		t.Errorf("out = %q", out)
	}
}

func TestQuitStopsServing(t *testing.T) {
	out := runText(t, "quit\r\nget a\r\n")
	if out != "" {
		t.Errorf("served after quit: %q", out)
	}
}

// ---------------------------------------------------------------------------
// Binary protocol

func binFrame(opcode byte, extras, key, value []byte, cas uint64) []byte {
	hdr := make([]byte, 24)
	hdr[0] = 0x80
	hdr[1] = opcode
	binary.BigEndian.PutUint16(hdr[2:4], uint16(len(key)))
	hdr[4] = byte(len(extras))
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(extras)+len(key)+len(value)))
	binary.BigEndian.PutUint64(hdr[16:24], cas)
	out := append(hdr, extras...)
	out = append(out, key...)
	return append(out, value...)
}

type binRes struct {
	opcode byte
	status uint16
	extras []byte
	key    []byte
	value  []byte
	cas    uint64
}

func parseBinStream(t *testing.T, b []byte) []binRes {
	t.Helper()
	var out []binRes
	for len(b) > 0 {
		if len(b) < 24 {
			t.Fatalf("truncated frame: %d bytes", len(b))
		}
		if b[0] != 0x81 {
			t.Fatalf("bad magic %#x", b[0])
		}
		keyLen := int(binary.BigEndian.Uint16(b[2:4]))
		extraLen := int(b[4])
		bodyLen := int(binary.BigEndian.Uint32(b[8:12]))
		res := binRes{
			opcode: b[1],
			status: binary.BigEndian.Uint16(b[6:8]),
			cas:    binary.BigEndian.Uint64(b[16:24]),
		}
		body := b[24 : 24+bodyLen]
		res.extras = body[:extraLen]
		res.key = body[extraLen : extraLen+keyLen]
		res.value = body[extraLen+keyLen:]
		out = append(out, res)
		b = b[24+bodyLen:]
	}
	return out
}

func runBinary(t *testing.T, frames ...[]byte) []binRes {
	t.Helper()
	c := engine.New(engine.Config{Branch: engine.IPOnCommit, HashPower: 8})
	c.Start()
	defer c.Stop()
	in := &bytes.Buffer{}
	for _, f := range frames {
		in.Write(f)
	}
	d := &duplex{in: in, out: &bytes.Buffer{}}
	if err := NewConn(c.NewWorker(), d).Serve(); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	return parseBinStream(t, d.out.Bytes())
}

func TestBinarySetGet(t *testing.T) {
	extras := make([]byte, 8)
	binary.BigEndian.PutUint32(extras[0:4], 42) // flags
	res := runBinary(t,
		binFrame(OpSet, extras, []byte("bk"), []byte("bv"), 0),
		binFrame(OpGet, nil, []byte("bk"), nil, 0),
		binFrame(OpGet, nil, []byte("miss"), nil, 0),
	)
	if len(res) != 3 {
		t.Fatalf("%d responses", len(res))
	}
	if res[0].status != StatusOK {
		t.Errorf("set status %#x", res[0].status)
	}
	if res[1].status != StatusOK || string(res[1].value) != "bv" {
		t.Errorf("get = status %#x value %q", res[1].status, res[1].value)
	}
	if got := binary.BigEndian.Uint32(res[1].extras); got != 42 {
		t.Errorf("get flags = %d", got)
	}
	if res[1].cas == 0 {
		t.Error("get cas = 0")
	}
	if res[2].status != StatusKeyNotFound {
		t.Errorf("miss status %#x", res[2].status)
	}
}

func TestBinaryIncrCreatesWithInitial(t *testing.T) {
	extras := make([]byte, 20)
	binary.BigEndian.PutUint64(extras[0:8], 5)   // delta
	binary.BigEndian.PutUint64(extras[8:16], 99) // initial
	res := runBinary(t,
		binFrame(OpIncrement, extras, []byte("n"), nil, 0),
		binFrame(OpIncrement, extras, []byte("n"), nil, 0),
	)
	if res[0].status != StatusOK || binary.BigEndian.Uint64(res[0].value) != 99 {
		t.Errorf("first incr = %#x %v", res[0].status, res[0].value)
	}
	if res[1].status != StatusOK || binary.BigEndian.Uint64(res[1].value) != 104 {
		t.Errorf("second incr = %#x %v", res[1].status, res[1].value)
	}
}

func TestBinaryDeleteVersionNoopQuit(t *testing.T) {
	extras := make([]byte, 8)
	res := runBinary(t,
		binFrame(OpSet, extras, []byte("k"), []byte("v"), 0),
		binFrame(OpDelete, nil, []byte("k"), nil, 0),
		binFrame(OpDelete, nil, []byte("k"), nil, 0),
		binFrame(OpNoop, nil, nil, nil, 0),
		binFrame(OpVersion, nil, nil, nil, 0),
		binFrame(OpQuit, nil, nil, nil, 0),
		binFrame(OpNoop, nil, nil, nil, 0), // must not be served
	)
	if len(res) != 6 {
		t.Fatalf("%d responses, want 6 (quit stops serving)", len(res))
	}
	if res[1].status != StatusOK || res[2].status != StatusKeyNotFound {
		t.Errorf("delete statuses %#x %#x", res[1].status, res[2].status)
	}
	if string(res[4].value) != Version {
		t.Errorf("version = %q", res[4].value)
	}
}

func TestBinaryAddReplaceCAS(t *testing.T) {
	extras := make([]byte, 8)
	res := runBinary(t,
		binFrame(OpAdd, extras, []byte("k"), []byte("1"), 0),
		binFrame(OpAdd, extras, []byte("k"), []byte("2"), 0),
		binFrame(OpReplace, extras, []byte("k"), []byte("3"), 0),
		binFrame(OpGet, nil, []byte("k"), nil, 0),
	)
	if res[0].status != StatusOK || res[1].status != StatusItemNotStored || res[2].status != StatusOK {
		t.Errorf("statuses %#x %#x %#x", res[0].status, res[1].status, res[2].status)
	}
	cas := res[3].cas
	res2 := runBinary(t,
		binFrame(OpSet, extras, []byte("j"), []byte("x"), cas), // stale CAS on fresh cache
	)
	if res2[0].status != StatusKeyNotFound {
		t.Errorf("cas on absent = %#x", res2[0].status)
	}
}

func TestBinaryStat(t *testing.T) {
	extras := make([]byte, 8)
	res := runBinary(t,
		binFrame(OpSet, extras, []byte("k"), []byte("v"), 0),
		binFrame(OpStat, nil, nil, nil, 0),
	)
	if len(res) < 3 {
		t.Fatalf("stat returned %d frames", len(res))
	}
	last := res[len(res)-1]
	if len(last.key) != 0 || len(last.value) != 0 {
		t.Error("stat stream not terminated by empty frame")
	}
	foundSet := false
	for _, r := range res[1 : len(res)-1] {
		if string(r.key) == "cmd_set" && string(r.value) == "1" {
			foundSet = true
		}
	}
	if !foundSet {
		t.Error("cmd_set stat missing")
	}
}

func TestProtocolAutoDetect(t *testing.T) {
	// A text command followed by... the same connection cannot switch, but a
	// binary-first connection must be detected from byte 0x80.
	extras := make([]byte, 8)
	res := runBinary(t, binFrame(OpNoop, nil, nil, nil, 0))
	if len(res) != 1 || res[0].status != StatusOK {
		t.Errorf("binary autodetect failed: %+v", res)
	}
	_ = extras
	out := runText(t, "version\r\n")
	if !strings.HasPrefix(out, "VERSION") {
		t.Errorf("text autodetect failed: %q", out)
	}
}

func TestTextGatTouchesExpiry(t *testing.T) {
	c := engine.New(engine.Config{Branch: engine.ITOnCommit, HashPower: 8})
	c.Start()
	defer c.Stop()
	now := c.Now()
	d := &duplex{in: bytes.NewBufferString(
		"set k 0 0 1\r\nx\r\n" +
			fmt.Sprintf("gat %d k\r\n", now+100) +
			fmt.Sprintf("gats %d k missing\r\n", now+100)), out: &bytes.Buffer{}}
	if err := NewConn(c.NewWorker(), d).Serve(); err != nil {
		t.Fatal(err)
	}
	out := d.out.String()
	if !strings.Contains(out, "VALUE k 0 1\r\nx\r\n") {
		t.Errorf("gat output %q", out)
	}
	// gats includes a CAS token (4th field).
	if !strings.Contains(out, "VALUE k 0 1 ") {
		t.Errorf("gats missing CAS: %q", out)
	}
	// The touch must actually have extended the expiry.
	w := c.NewWorker()
	c.SetTime(now + 50)
	if _, _, _, ok := w.Get([]byte("k")); !ok {
		t.Error("item expired despite gat extension")
	}
}

func TestTextGatErrors(t *testing.T) {
	if out := runText(t, "gat notanumber k\r\n"); !strings.HasPrefix(out, "CLIENT_ERROR") {
		t.Errorf("out = %q", out)
	}
	if out := runText(t, "gat 100\r\n"); !strings.HasPrefix(out, "CLIENT_ERROR") {
		t.Errorf("out = %q", out)
	}
}

func TestBinaryAppendPrependTouchGAT(t *testing.T) {
	extras8 := make([]byte, 8)
	touchExtras := make([]byte, 4) // exptime 0 = never
	res := runBinary(t,
		binFrame(OpSet, extras8, []byte("k"), []byte("mid"), 0),
		binFrame(OpAppend, nil, []byte("k"), []byte("-end"), 0),
		binFrame(OpPrepend, nil, []byte("k"), []byte("start-"), 0),
		binFrame(OpGAT, touchExtras, []byte("k"), nil, 0),
		binFrame(OpTouch, touchExtras, []byte("k"), nil, 0),
		binFrame(OpTouch, touchExtras, []byte("missing"), nil, 0),
		binFrame(OpAppend, nil, []byte("missing"), []byte("x"), 0),
	)
	if res[1].status != StatusOK || res[2].status != StatusOK {
		t.Errorf("append/prepend status %#x %#x", res[1].status, res[2].status)
	}
	if string(res[3].value) != "start-mid-end" {
		t.Errorf("GAT value %q", res[3].value)
	}
	if res[4].status != StatusOK {
		t.Errorf("touch status %#x", res[4].status)
	}
	if res[5].status != StatusKeyNotFound {
		t.Errorf("touch missing status %#x", res[5].status)
	}
	if res[6].status != StatusItemNotStored {
		t.Errorf("append missing status %#x", res[6].status)
	}
}

// TestServeNeverPanicsOnGarbage feeds random byte streams (forced to start
// with both protocol magics and with printable junk) through the handler; it
// must fail cleanly, never panic, and never write a malformed reply frame.
func TestServeNeverPanicsOnGarbage(t *testing.T) {
	c := engine.New(engine.Config{Branch: engine.ITOnCommit, HashPower: 6})
	c.Start()
	defer c.Stop()
	w := c.NewWorker()
	f := func(data []byte, binaryFirst bool) bool {
		if binaryFirst {
			data = append([]byte{0x80}, data...)
		} else {
			data = append([]byte("set "), data...)
		}
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on input %q: %v", data, r)
			}
		}()
		d := &duplex{in: bytes.NewBuffer(data), out: &bytes.Buffer{}}
		_ = NewConn(w, d).Serve() // transport errors are fine; panics are not
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestTextPipelining: many commands in one buffer are answered in order.
func TestTextPipelining(t *testing.T) {
	var script strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&script, "set k%02d 0 0 2\r\nv%d\r\n", i, i%10)
	}
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&script, "get k%02d\r\n", i)
	}
	out := runText(t, script.String())
	if got := strings.Count(out, "STORED"); got != 50 {
		t.Errorf("STORED count = %d", got)
	}
	if got := strings.Count(out, "VALUE"); got != 50 {
		t.Errorf("VALUE count = %d", got)
	}
}

// TestBinaryTruncatedFrame: a frame cut off mid-body terminates the
// connection with a transport error and no reply for the partial frame.
func TestBinaryTruncatedFrame(t *testing.T) {
	c := engine.New(engine.Config{Branch: engine.IPOnCommit, HashPower: 8})
	c.Start()
	defer c.Stop()
	full := binFrame(OpSet, make([]byte, 8), []byte("k"), []byte("v"), 0)
	d := &duplex{in: bytes.NewBuffer(full[:len(full)-1]), out: &bytes.Buffer{}}
	if err := NewConn(c.NewWorker(), d).Serve(); err == nil {
		t.Error("Serve returned nil for a truncated frame")
	}
	if res := parseBinStream(t, d.out.Bytes()); len(res) != 0 {
		t.Errorf("got %d replies for a truncated frame", len(res))
	}
}

func TestStatsReset(t *testing.T) {
	out := runText(t, "set a 0 0 1\r\nx\r\nget a\r\nstats reset\r\nstats\r\n")
	if !strings.Contains(out, "RESET\r\n") {
		t.Fatalf("no RESET ack: %q", out)
	}
	if !strings.Contains(out, "STAT cmd_get 0\r\n") || !strings.Contains(out, "STAT cmd_set 0\r\n") {
		t.Errorf("counters not reset: %q", out)
	}
	if !strings.Contains(out, "STAT curr_items 1\r\n") {
		t.Errorf("gauge curr_items should survive reset: %q", out)
	}
}

func TestStatsSlabs(t *testing.T) {
	out := runText(t, "set a 0 0 100\r\n"+strings.Repeat("x", 100)+"\r\nstats slabs\r\n")
	if !strings.Contains(out, ":chunk_size ") || !strings.Contains(out, ":used_chunks 1\r\n") {
		t.Errorf("stats slabs output %q", out)
	}
	if !strings.HasSuffix(out, "END\r\n") {
		t.Errorf("missing END: %q", out)
	}
}

func TestBinaryQuietGets(t *testing.T) {
	extras := make([]byte, 8)
	res := runBinary(t,
		binFrame(OpSet, extras, []byte("q"), []byte("v"), 0),
		binFrame(OpGetQ, nil, []byte("missing"), nil, 0), // quiet miss: silence
		binFrame(OpGetQ, nil, []byte("q"), nil, 0),       // quiet hit: reply
		binFrame(OpGetK, nil, []byte("q"), nil, 0),       // key echoed
		binFrame(OpGetKQ, nil, []byte("missing"), nil, 0),
		binFrame(OpNoop, nil, nil, nil, 0),
	)
	if len(res) != 4 {
		t.Fatalf("%d replies, want 4 (set, quiet hit, getk, noop)", len(res))
	}
	if res[1].opcode != OpGetQ || string(res[1].value) != "v" {
		t.Errorf("quiet hit = %+v", res[1])
	}
	if res[2].opcode != OpGetK || string(res[2].key) != "q" || string(res[2].value) != "v" {
		t.Errorf("getk = %+v", res[2])
	}
	if res[3].opcode != OpNoop {
		t.Errorf("last reply = %+v, want noop", res[3])
	}
}

func TestTextStoreEdgeCases(t *testing.T) {
	// Oversized nbytes: refused without allocating the claimed size; the
	// declared body is drained (consuming the rest of this small input, as
	// resynchronization requires).
	out := runText(t, "set big 0 0 99999999\r\njunk\r\nversion\r\n")
	if !strings.Contains(out, "CLIENT_ERROR") || strings.Contains(out, "STORED") {
		t.Errorf("oversized set out = %q", out)
	}
	// Bad flags field with noreply: silent, stream stays in sync.
	out = runText(t, "set k notanumber 0 1 noreply\r\nx\r\nget k\r\n")
	if !strings.HasSuffix(out, "END\r\n") || strings.Contains(out, "VALUE") {
		t.Errorf("noreply bad-format out = %q", out)
	}
	// Bad data terminator.
	out = runText(t, "set k 0 0 1\r\nxZZget k\r\n")
	if !strings.Contains(out, "CLIENT_ERROR bad data chunk") {
		t.Errorf("bad terminator out = %q", out)
	}
	// cas with bad unique.
	out = runText(t, "cas k 0 0 1 notanumber\r\nx\r\n")
	if !strings.Contains(out, "CLIENT_ERROR") {
		t.Errorf("bad cas out = %q", out)
	}
	// Negative-looking nbytes (parse failure path).
	out = runText(t, "set k 0 0 -5\r\n")
	if !strings.Contains(out, "CLIENT_ERROR") && !strings.Contains(out, "ERROR") {
		t.Errorf("negative nbytes out = %q", out)
	}
}

func TestTextTouchAndDeleteNoreply(t *testing.T) {
	out := runText(t, "set k 0 0 1\r\nx\r\ntouch k 100 noreply\r\ndelete k noreply\r\nget k\r\n")
	want := "STORED\r\nEND\r\n"
	if out != want {
		t.Errorf("out = %q, want %q", out, want)
	}
	if got := runText(t, "touch nothere 100\r\n"); got != "NOT_FOUND\r\n" {
		t.Errorf("touch miss = %q", got)
	}
	if got := runText(t, "touch k notanumber\r\n"); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Errorf("touch bad exptime = %q", got)
	}
	if got := runText(t, "touch k\r\n"); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Errorf("touch missing args = %q", got)
	}
}

func TestTextVerbosityAndIncrNoreply(t *testing.T) {
	if got := runText(t, "verbosity 1\r\n"); got != "OK\r\n" {
		t.Errorf("verbosity = %q", got)
	}
	if got := runText(t, "verbosity\r\n"); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Errorf("verbosity no args = %q", got)
	}
	out := runText(t, "set n 0 0 1\r\n5\r\nincr n 1 noreply\r\nget n\r\n")
	if !strings.Contains(out, "\r\n6\r\n") {
		t.Errorf("incr noreply out = %q", out)
	}
}

func TestBinaryOversizedBody(t *testing.T) {
	// A frame claiming a 100MB body must be refused without allocation.
	hdr := make([]byte, 24)
	hdr[0] = 0x80
	hdr[1] = OpSet
	binary.BigEndian.PutUint32(hdr[8:12], 100<<20)
	res := runBinary(t, hdr)
	if len(res) != 1 || res[0].status != StatusValueTooLarge {
		t.Errorf("oversized body res = %+v", res)
	}
}

func TestBinaryBadMagicAndUnknownOpcode(t *testing.T) {
	res := runBinary(t, binFrame(0x42, nil, nil, nil, 0))
	if len(res) != 1 || res[0].status != StatusUnknownCommand {
		t.Errorf("unknown opcode res = %+v", res)
	}
	// Inconsistent lengths: keyLen > bodyLen.
	hdr := make([]byte, 24)
	hdr[0] = 0x80
	hdr[1] = OpGet
	binary.BigEndian.PutUint16(hdr[2:4], 10) // key 10 bytes, body 0
	res = runBinary(t, hdr)
	if len(res) != 1 || res[0].status != StatusInvalidArgs {
		t.Errorf("inconsistent lengths res = %+v", res)
	}
}
