package protocol

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"repro/internal/engine"
)

// newTxCache builds a wire-transaction-capable cache (IT family).
func newTxCache(t *testing.T, shards int) *engine.Cache {
	t.Helper()
	c := engine.New(engine.Config{Branch: engine.ITMax, HashPower: 8, Shards: shards})
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

// txClient is a live connection to an in-process Conn, for tests that must
// interleave other workers' writes with an open transaction.
type txClient struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
	done chan struct{} // closed when Serve returns
}

func dialTx(t *testing.T, c *engine.Cache) *txClient {
	t.Helper()
	srv, cli := net.Pipe()
	pc := NewConn(c.NewWorker(), srv)
	done := make(chan struct{})
	go func() {
		pc.Serve()
		srv.Close()
		close(done)
	}()
	tc := &txClient{t: t, conn: cli, r: bufio.NewReader(cli), done: done}
	t.Cleanup(func() {
		cli.Close()
		<-done
	})
	return tc
}

func (tc *txClient) send(s string) {
	tc.t.Helper()
	if _, err := tc.conn.Write([]byte(s)); err != nil {
		tc.t.Fatalf("write %q: %v", s, err)
	}
}

func (tc *txClient) line() string {
	tc.t.Helper()
	l, err := tc.r.ReadString('\n')
	if err != nil {
		tc.t.Fatalf("read line: %v", err)
	}
	return strings.TrimRight(l, "\r\n")
}

func (tc *txClient) expect(want string) {
	tc.t.Helper()
	if got := tc.line(); got != want {
		tc.t.Fatalf("reply = %q, want %q", got, want)
	}
}

func TestTxCommitTextEndToEnd(t *testing.T) {
	c := newTxCache(t, 2)
	w := c.NewWorker()
	if w.Set([]byte("x"), 0, 0, []byte("5")) != engine.Stored {
		t.Fatal("seed failed")
	}

	tc := dialTx(t, c)
	tc.send("txbegin\r\n")
	tc.expect("STARTED")
	tc.send("gets x\r\n")
	val := tc.line() // VALUE x 0 1 <cas>
	if !strings.HasPrefix(val, "VALUE x 0 1 ") {
		t.Fatalf("gets reply = %q", val)
	}
	tc.expect("5")
	tc.expect("END")
	tc.send("set y 0 0 2\r\nhi\r\n")
	tc.expect("QUEUED")
	tc.send("incr x 3\r\n")
	tc.expect("QUEUED")
	tc.send("delete ghost\r\n")
	tc.expect("QUEUED")
	tc.send("txcommit\r\n")
	tc.expect("TXRESULT 3")
	tc.expect("STORED")    // set y
	tc.expect("8")         // incr x: 5+3
	tc.expect("NOT_FOUND") // delete ghost
	tc.expect("END")

	if v, _, _, ok := w.Get([]byte("y")); !ok || string(v) != "hi" {
		t.Fatalf("y = %q, %v", v, ok)
	}
	if v, _, _, _ := w.Get([]byte("x")); string(v) != "8" {
		t.Fatalf("x = %q", v)
	}
}

func TestTxConflictText(t *testing.T) {
	c := newTxCache(t, 1)
	w := c.NewWorker()
	w.Set([]byte("x"), 0, 0, []byte("old"))

	tc := dialTx(t, c)
	tc.send("txbegin\r\n")
	tc.expect("STARTED")
	tc.send("get x\r\n")
	tc.expect("VALUE x 0 3")
	tc.expect("old")
	tc.expect("END")

	// Another client moves x's CAS while the transaction is open.
	if w.Set([]byte("x"), 0, 0, []byte("new")) != engine.Stored {
		t.Fatal("intervening set failed")
	}

	tc.send("set never 0 0 1\r\nz\r\n")
	tc.expect("QUEUED")
	tc.send("txcommit\r\n")
	tc.expect("TX_CONFLICT x")

	if _, _, _, ok := w.Get([]byte("never")); ok {
		t.Fatal("conflicted transaction applied its write")
	}
	// The conflict consumed the transaction: the connection is back to
	// normal dispatch.
	tc.send("txcommit\r\n")
	tc.expect("CLIENT_ERROR no transaction started")
}

// TestTxReadsAreReadCommitted pins the documented in-transaction read
// semantics: reads execute immediately against committed state and do NOT
// observe the transaction's own queued writes (clients wanting
// read-your-writes overlay their local write-set, as the client library
// does).
func TestTxReadsAreReadCommitted(t *testing.T) {
	c := newTxCache(t, 2)
	out := runTextOn(t, c,
		"set k 0 0 3\r\nold\r\n"+
			"txbegin\r\n"+
			"set k 0 0 3\r\nnew\r\n"+
			"get k\r\n"+
			"txabort\r\n")
	want := "STORED\r\nSTARTED\r\nQUEUED\r\nVALUE k 0 3\r\nold\r\nEND\r\nABORTED\r\n"
	if out != want {
		t.Errorf("out = %q, want %q", out, want)
	}
}

func TestTxStateErrors(t *testing.T) {
	c := newTxCache(t, 1)
	for _, tc := range []struct {
		script string
		want   string
	}{
		{"txcommit\r\n", "CLIENT_ERROR no transaction started\r\n"},
		{"txabort\r\n", "CLIENT_ERROR no transaction started\r\n"},
		// Nested txbegin drops the open transaction.
		{"txbegin\r\ntxbegin\r\ntxcommit\r\n",
			"STARTED\r\nCLIENT_ERROR transaction already started\r\nCLIENT_ERROR no transaction started\r\n"},
		// Non-queueable commands are refused without killing the transaction.
		{"txbegin\r\nstats\r\nflush_all\r\ntxcommit\r\n",
			"STARTED\r\nCLIENT_ERROR command not allowed inside a transaction\r\n" +
				"CLIENT_ERROR command not allowed inside a transaction\r\nTXRESULT 0\r\nEND\r\n"},
		// version stays available inside a transaction.
		{"txbegin\r\nversion\r\ntxabort\r\n",
			"STARTED\r\nVERSION " + Version + "\r\nABORTED\r\n"},
	} {
		if out := runTextOn(t, c, tc.script); out != tc.want {
			t.Errorf("script %q:\n got %q\nwant %q", tc.script, out, tc.want)
		}
	}
}

func TestTxUnsupportedBranch(t *testing.T) {
	c := engine.New(engine.Config{Branch: engine.Baseline, HashPower: 8})
	c.Start()
	defer c.Stop()
	out := runTextOn(t, c, "txbegin\r\n")
	if out != "SERVER_ERROR transactions not supported on this branch\r\n" {
		t.Errorf("text out = %q", out)
	}
	d := &duplex{in: bytes.NewBuffer(binFrame(OpTxBegin, nil, nil, nil, 0)), out: &bytes.Buffer{}}
	if err := NewConn(c.NewWorker(), d).Serve(); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	res := parseBinStream(t, d.out.Bytes())
	if len(res) != 1 || res[0].status != StatusUnknownCommand {
		t.Errorf("binary res = %+v", res)
	}
	if string(res[0].value) != "transactions not supported on this branch" {
		t.Errorf("binary msg = %q", res[0].value)
	}
}

func TestTxOpLimitAbortsTransaction(t *testing.T) {
	c := newTxCache(t, 1)
	var sb strings.Builder
	sb.WriteString("txbegin\r\n")
	for i := 0; i <= MaxTxOps; i++ {
		fmt.Fprintf(&sb, "delete k%d\r\n", i)
	}
	sb.WriteString("txcommit\r\n")
	out := runTextOn(t, c, sb.String())
	if got, want := strings.Count(out, "QUEUED\r\n"), MaxTxOps; got != want {
		t.Errorf("QUEUED count = %d, want %d", got, want)
	}
	if !strings.Contains(out, "CLIENT_ERROR transaction operation limit exceeded\r\n") {
		t.Errorf("missing limit error: %q", out)
	}
	// The oversized transaction is gone: nothing committed.
	if !strings.HasSuffix(out, "CLIENT_ERROR no transaction started\r\n") {
		t.Errorf("transaction survived limit violation: %q", out)
	}
}

func TestTxNoreplySuppressesQueued(t *testing.T) {
	c := newTxCache(t, 1)
	out := runTextOn(t, c,
		"txbegin noreply\r\nset a 0 0 1 noreply\r\nx\r\ndelete b noreply\r\ntxcommit\r\n")
	want := "TXRESULT 2\r\nSTORED\r\nNOT_FOUND\r\nEND\r\n"
	if out != want {
		t.Errorf("out = %q, want %q", out, want)
	}
}

func TestTxBinaryCommitAndConflict(t *testing.T) {
	c := newTxCache(t, 2)
	w := c.NewWorker()
	w.Set([]byte("x"), 0, 0, []byte("old"))

	setExtras := make([]byte, 8)
	d := &duplex{in: &bytes.Buffer{}, out: &bytes.Buffer{}}
	d.in.Write(binFrame(OpTxBegin, nil, nil, nil, 0))
	d.in.Write(binFrame(OpGet, nil, []byte("x"), nil, 0))
	d.in.Write(binFrame(OpSet, setExtras, []byte("y"), []byte("vy"), 0))
	d.in.Write(binFrame(OpTxCommit, nil, nil, nil, 0))
	if err := NewConn(c.NewWorker(), d).Serve(); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	res := parseBinStream(t, d.out.Bytes())
	if len(res) != 4 {
		t.Fatalf("got %d replies", len(res))
	}
	for i, r := range res {
		if r.status != StatusOK {
			t.Fatalf("reply %d status = %#x", i, r.status)
		}
	}
	if string(res[1].value) != "old" {
		t.Errorf("in-tx get = %q", res[1].value)
	}
	if string(res[3].value) != "1" { // one op applied
		t.Errorf("commit value = %q", res[3].value)
	}
	if v, _, _, ok := w.Get([]byte("y")); !ok || string(v) != "vy" {
		t.Fatalf("y = %q, %v", v, ok)
	}

	// Conflict: read x on a live pipe, move its CAS from outside, commit.
	tcSrv, tcCli := net.Pipe()
	pc := NewConn(c.NewWorker(), tcSrv)
	done := make(chan struct{})
	go func() { pc.Serve(); tcSrv.Close(); close(done) }()
	defer func() { tcCli.Close(); <-done }()
	write := func(b []byte) {
		if _, err := tcCli.Write(b); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	readRes := func() binRes {
		hdr := make([]byte, 24)
		if _, err := io.ReadFull(tcCli, hdr); err != nil {
			t.Fatalf("read header: %v", err)
		}
		bodyLen := int(binary.BigEndian.Uint32(hdr[8:12]))
		body := make([]byte, bodyLen)
		if _, err := io.ReadFull(tcCli, body); err != nil {
			t.Fatalf("read body: %v", err)
		}
		all := append(hdr, body...)
		return parseBinStream(t, all)[0]
	}
	write(binFrame(OpTxBegin, nil, nil, nil, 0))
	if r := readRes(); r.status != StatusOK {
		t.Fatalf("txbegin status %#x", r.status)
	}
	write(binFrame(OpGet, nil, []byte("x"), nil, 0))
	if r := readRes(); r.status != StatusOK {
		t.Fatalf("get status %#x", r.status)
	}
	if w.Set([]byte("x"), 0, 0, []byte("moved")) != engine.Stored {
		t.Fatal("intervening set failed")
	}
	write(binFrame(OpTxCommit, nil, nil, nil, 0))
	r := readRes()
	if r.status != StatusKeyExists {
		t.Fatalf("commit status = %#x, want KeyExists", r.status)
	}
	if string(r.key) != "x" {
		t.Errorf("conflict key = %q", r.key)
	}
}

func TestTxStatsLinesAndReset(t *testing.T) {
	c := newTxCache(t, 2)
	script := "txbegin\r\nset a 0 0 1\r\nv\r\ntxcommit\r\nstats\r\n" +
		"stats reset\r\nstats\r\n"
	out := runTextOn(t, c, script)
	first := out[:strings.Index(out, "RESET")]
	rest := out[strings.Index(out, "RESET"):]
	if !strings.Contains(first, "STAT tx_commits 1\r\n") {
		t.Errorf("missing tx_commits 1 before reset:\n%s", first)
	}
	if !strings.Contains(rest, "STAT tx_commits 0\r\n") ||
		!strings.Contains(rest, "STAT tx_conflicts 0\r\n") {
		t.Errorf("tx counters not reset:\n%s", rest)
	}
}

// TestTxDroppedConnectionLeavesNoState pins the disconnect-is-abort contract:
// a connection that dies mid-transaction leaves the cache untouched and
// other connections fully operational.
func TestTxDroppedConnectionLeavesNoState(t *testing.T) {
	c := newTxCache(t, 2)
	tc := dialTx(t, c)
	tc.send("txbegin\r\n")
	tc.expect("STARTED")
	tc.send("set orphan 0 0 1\r\no\r\n")
	tc.expect("QUEUED")
	tc.conn.Close()
	<-tc.done

	w := c.NewWorker()
	if _, _, _, ok := w.Get([]byte("orphan")); ok {
		t.Fatal("dropped transaction's write leaked")
	}
	out := runTextOn(t, c, "txbegin\r\nset k 0 0 1\r\nv\r\ntxcommit\r\n")
	if !strings.Contains(out, "TXRESULT 1") {
		t.Fatalf("follow-up transaction failed: %q", out)
	}
	if s := w.Stats(); s.TxCommits != 1 {
		t.Fatalf("TxCommits = %d, want 1", s.TxCommits)
	}
}
