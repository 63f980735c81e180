// Package client is a Go client for the repro memcached server, speaking the
// text protocol plus the wire-transaction extension (txbegin/txcommit).
//
// A Client owns one connection and is not safe for concurrent use; pool
// Clients for concurrency (each transaction is per-connection state on the
// server, so a transaction must stay on one connection anyway).
//
// Transactions run through Tx:
//
//	err := c.Tx(func(tx *client.Tx) error {
//		v, ok, err := tx.Get("balance:a")
//		...
//		tx.Set("balance:a", newA)
//		tx.IncrBy("balance:b", 10)
//		return nil
//	})
//
// Reads inside the callback are served from the transaction's local write-set
// first (read-your-writes); reads that go to the server join the server-side
// read set and are revalidated at commit, so a nil return from Tx means the
// whole callback executed against a consistent snapshot. On TX_CONFLICT the
// callback is re-run from scratch, up to MaxTxRetries times, then Tx returns
// a *ConflictError (errors.Is(err, ErrConflict)).
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
)

// Typed error sentinels.
var (
	// ErrConflict: the transaction's read set was invalidated and every retry
	// lost too. Matches *ConflictError via errors.Is.
	ErrConflict = errors.New("client: transaction conflict")
	// ErrNotSupported: the server's branch configuration cannot serve wire
	// transactions (lock-based or NoSerialLock builds).
	ErrNotSupported = errors.New("client: transactions not supported by server")
	// ErrNotStored: a plain Set/Add/Replace was refused by the server.
	ErrNotStored = errors.New("client: not stored")
	// ErrCASConflict: a CAS store lost its race.
	ErrCASConflict = errors.New("client: CAS conflict")
	// ErrNonNumeric: Incr/Decr on a non-numeric value.
	ErrNonNumeric = errors.New("client: non-numeric value")
)

// ConflictError reports the key whose commit-time validation failed on the
// last attempt.
type ConflictError struct{ Key string }

func (e *ConflictError) Error() string {
	return "client: transaction conflict on " + strconv.Quote(e.Key)
}
func (e *ConflictError) Is(target error) bool { return target == ErrConflict }

// ServerReplyError is any CLIENT_ERROR / SERVER_ERROR / ERROR line the server
// sent where a success reply was expected.
type ServerReplyError struct{ Line string }

func (e *ServerReplyError) Error() string { return "client: server replied " + strconv.Quote(e.Line) }

// Item is one cache entry as returned by Gets.
type Item struct {
	Key   string
	Value []byte
	Flags uint32
	CAS   uint64
}

// Client is one connection to the server.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	maxTxRetries int
	retryBackoff time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithMaxTxRetries sets how many times Tx re-runs its callback after a
// conflict before giving up (default 3; 0 = no retries).
func WithMaxTxRetries(n int) Option { return func(c *Client) { c.maxTxRetries = n } }

// WithRetryBackoff sets the sleep before each conflict retry (default 0: the
// validation is optimistic and cheap, immediate retry is usually right).
func WithRetryBackoff(d time.Duration) Option { return func(c *Client) { c.retryBackoff = d } }

// Dial connects to a server address ("host:port").
func Dial(addr string, opts ...Option) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewFromConn(conn, opts...), nil
}

// NewFromConn wraps an established connection (tests, custom transports).
func NewFromConn(conn net.Conn, opts ...Option) *Client {
	c := &Client{
		conn:         conn,
		r:            bufio.NewReader(conn),
		w:            bufio.NewWriter(conn),
		maxTxRetries: 3,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Close tears down the connection. An open transaction dies with it — the
// server treats disconnect as txabort.
func (c *Client) Close() error { return c.conn.Close() }

// ---------------------------------------------------------------------------
// plain commands

func (c *Client) roundTrip(cmd string) (string, error) {
	if _, err := c.w.WriteString(cmd); err != nil {
		return "", err
	}
	if err := c.w.Flush(); err != nil {
		return "", err
	}
	return c.readLine()
}

func (c *Client) readLine() (string, error) {
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

func isErrorLine(line string) bool {
	return line == "ERROR" ||
		strings.HasPrefix(line, "CLIENT_ERROR ") ||
		strings.HasPrefix(line, "SERVER_ERROR ")
}

// Set stores value under key unconditionally.
func (c *Client) Set(key string, value []byte) error {
	return c.store("set", key, 0, 0, value, 0)
}

// SetWith stores with explicit flags and expiry (relative seconds ≤ 30 days,
// or an absolute timestamp — the server's convention).
func (c *Client) SetWith(key string, flags uint32, exptime uint64, value []byte) error {
	return c.store("set", key, flags, exptime, value, 0)
}

// Add stores only if the key is absent.
func (c *Client) Add(key string, value []byte) error {
	return c.store("add", key, 0, 0, value, 0)
}

// CompareAndSwap stores only if the entry's CAS still matches.
func (c *Client) CompareAndSwap(key string, value []byte, cas uint64) error {
	return c.store("cas", key, 0, 0, value, cas)
}

func (c *Client) store(verb, key string, flags uint32, exptime uint64, value []byte, cas uint64) error {
	var cmd string
	if verb == "cas" {
		cmd = fmt.Sprintf("cas %s %d %d %d %d\r\n", key, flags, exptime, len(value), cas)
	} else {
		cmd = fmt.Sprintf("%s %s %d %d %d\r\n", verb, key, flags, exptime, len(value))
	}
	line, err := c.roundTrip(cmd + string(value) + "\r\n")
	if err != nil {
		return err
	}
	switch line {
	case "STORED":
		return nil
	case "NOT_STORED":
		return ErrNotStored
	case "EXISTS":
		return ErrCASConflict
	case "NOT_FOUND":
		return ErrNotStored
	default:
		return &ServerReplyError{Line: line}
	}
}

// Get fetches one key; ok is false on a miss.
func (c *Client) Get(key string) (value []byte, ok bool, err error) {
	items, err := c.gets("get", []string{key})
	if err != nil || len(items) == 0 {
		return nil, false, err
	}
	return items[0].Value, true, nil
}

// Gets fetches keys with their CAS ids; misses are simply absent from the
// result.
func (c *Client) Gets(keys ...string) ([]Item, error) {
	return c.gets("gets", keys)
}

func (c *Client) gets(verb string, keys []string) ([]Item, error) {
	cmd := verb + " " + strings.Join(keys, " ") + "\r\n"
	if _, err := c.w.WriteString(cmd); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	return c.readValues()
}

// readValues parses a VALUE.../END stream.
func (c *Client) readValues() ([]Item, error) {
	var items []Item
	for {
		line, err := c.readLine()
		if err != nil {
			return nil, err
		}
		if line == "END" {
			return items, nil
		}
		if isErrorLine(line) {
			return nil, &ServerReplyError{Line: line}
		}
		var it Item
		var n int
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[0] != "VALUE" {
			return nil, &ServerReplyError{Line: line}
		}
		it.Key = fields[1]
		f64, err1 := strconv.ParseUint(fields[2], 10, 32)
		nv, err2 := strconv.Atoi(fields[3])
		if err1 != nil || err2 != nil {
			return nil, &ServerReplyError{Line: line}
		}
		it.Flags, n = uint32(f64), nv
		if len(fields) >= 5 {
			if it.CAS, err = strconv.ParseUint(fields[4], 10, 64); err != nil {
				return nil, &ServerReplyError{Line: line}
			}
		}
		it.Value = make([]byte, n)
		if _, err := readFull(c.r, it.Value); err != nil {
			return nil, err
		}
		if term, err := c.readLine(); err != nil {
			return nil, err
		} else if term != "" {
			return nil, &ServerReplyError{Line: term}
		}
		items = append(items, it)
	}
}

func readFull(r *bufio.Reader, p []byte) (int, error) {
	total := 0
	for total < len(p) {
		n, err := r.Read(p[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Delete removes key; ok reports whether it existed.
func (c *Client) Delete(key string) (bool, error) {
	line, err := c.roundTrip("delete " + key + "\r\n")
	if err != nil {
		return false, err
	}
	switch line {
	case "DELETED":
		return true, nil
	case "NOT_FOUND":
		return false, nil
	default:
		return false, &ServerReplyError{Line: line}
	}
}

// Incr / Decr adjust a numeric value, returning the new value.
func (c *Client) Incr(key string, delta uint64) (uint64, error) { return c.delta("incr", key, delta) }
func (c *Client) Decr(key string, delta uint64) (uint64, error) { return c.delta("decr", key, delta) }

func (c *Client) delta(verb, key string, delta uint64) (uint64, error) {
	line, err := c.roundTrip(fmt.Sprintf("%s %s %d\r\n", verb, key, delta))
	if err != nil {
		return 0, err
	}
	if line == "NOT_FOUND" {
		return 0, ErrNotStored
	}
	if strings.HasPrefix(line, "CLIENT_ERROR ") {
		return 0, ErrNonNumeric
	}
	v, perr := strconv.ParseUint(line, 10, 64)
	if perr != nil {
		return 0, &ServerReplyError{Line: line}
	}
	return v, nil
}

// Version fetches the server version string.
func (c *Client) Version() (string, error) {
	line, err := c.roundTrip("version\r\n")
	if err != nil {
		return "", err
	}
	v, ok := strings.CutPrefix(line, "VERSION ")
	if !ok {
		return "", &ServerReplyError{Line: line}
	}
	return v, nil
}

// Stat is one STAT line of a stats reply: its key and the rest of the line.
type Stat struct{ Key, Value string }

// Stats runs `stats <group>` ("" for the general group; "tm", "conflicts",
// "latency", "eventloop", "slabs") and returns its STAT lines in the order
// the server sent them. A group the server does not know answers ERROR,
// returned as a *ServerReplyError.
func (c *Client) Stats(group string) ([]Stat, error) {
	cmd := "stats\r\n"
	if group != "" {
		cmd = "stats " + group + "\r\n"
	}
	line, err := c.roundTrip(cmd)
	var out []Stat
	for ; err == nil; line, err = c.readLine() {
		if line == "END" {
			return out, nil
		}
		if isErrorLine(line) {
			return nil, &ServerReplyError{Line: line}
		}
		if rest, ok := strings.CutPrefix(line, "STAT "); ok {
			k, v, _ := strings.Cut(rest, " ")
			out = append(out, Stat{Key: k, Value: v})
		}
	}
	return nil, err
}

// ---------------------------------------------------------------------------
// transactions

// pendingWrite is the local write-set entry backing read-your-writes.
type pendingWrite struct {
	value   []byte
	deleted bool
}

// Tx is the in-flight transaction handle passed to the Tx callback. Mutations
// queue on the server; Get overlays the local write-set so the callback reads
// its own pending writes. Incr/Decr/Touch results are not locally modeled —
// a Get after IncrBy returns the committed (pre-transaction) value.
type Tx struct {
	c      *Client
	writes map[string]pendingWrite
	err    error // first queueing error; poisons the transaction
}

// Tx begins a transaction, runs fn, and commits. A TX_CONFLICT re-runs fn
// from a fresh transaction up to MaxTxRetries times. fn returning an error
// aborts the transaction and returns that error unchanged.
func (c *Client) Tx(fn func(tx *Tx) error) error {
	for attempt := 0; ; attempt++ {
		conflict, err := c.txOnce(fn)
		if err != nil {
			return err
		}
		if conflict == nil {
			return nil
		}
		if attempt >= c.maxTxRetries {
			return conflict
		}
		if c.retryBackoff > 0 {
			time.Sleep(c.retryBackoff)
		}
	}
}

// txOnce runs one attempt. It returns (conflict, nil) when the commit lost
// validation — retryable — and (nil, err) for everything terminal.
func (c *Client) txOnce(fn func(tx *Tx) error) (*ConflictError, error) {
	line, err := c.roundTrip("txbegin\r\n")
	if err != nil {
		return nil, err
	}
	if line != "STARTED" {
		if strings.HasPrefix(line, "SERVER_ERROR ") {
			return nil, ErrNotSupported
		}
		return nil, &ServerReplyError{Line: line}
	}
	tx := &Tx{c: c, writes: make(map[string]pendingWrite)}
	if ferr := fn(tx); ferr != nil || tx.err != nil {
		if _, aerr := c.roundTrip("txabort\r\n"); aerr != nil {
			return nil, aerr
		}
		if ferr == nil {
			ferr = tx.err
		}
		return nil, ferr
	}
	line, err = c.roundTrip("txcommit\r\n")
	if err != nil {
		return nil, err
	}
	if key, ok := strings.CutPrefix(line, "TX_CONFLICT "); ok {
		return &ConflictError{Key: key}, nil
	}
	nStr, ok := strings.CutPrefix(line, "TXRESULT ")
	if !ok {
		return nil, &ServerReplyError{Line: line}
	}
	n, perr := strconv.Atoi(nStr)
	if perr != nil {
		return nil, &ServerReplyError{Line: line}
	}
	// Drain the n per-op result lines and END.
	for i := 0; i < n+1; i++ {
		if _, err := c.readLine(); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// queue sends one queueable command and consumes its QUEUED reply. The first
// failure poisons the transaction handle; later calls are no-ops so the
// callback doesn't need per-call error plumbing.
func (tx *Tx) queue(cmd string) {
	if tx.err != nil {
		return
	}
	line, err := tx.c.roundTrip(cmd)
	if err != nil {
		tx.err = err
		return
	}
	if line != "QUEUED" {
		tx.err = &ServerReplyError{Line: line}
	}
}

// Set queues an unconditional store.
func (tx *Tx) Set(key string, value []byte) {
	tx.queue(fmt.Sprintf("set %s 0 0 %d\r\n%s\r\n", key, len(value), value))
	if tx.err == nil {
		tx.writes[key] = pendingWrite{value: append([]byte(nil), value...)}
	}
}

// Delete queues a delete.
func (tx *Tx) Delete(key string) {
	tx.queue("delete " + key + "\r\n")
	if tx.err == nil {
		tx.writes[key] = pendingWrite{deleted: true}
	}
}

// Touch queues an expiry update.
func (tx *Tx) Touch(key string, exptime uint64) {
	tx.queue(fmt.Sprintf("touch %s %d\r\n", key, exptime))
}

// IncrBy / DecrBy queue numeric adjustments, applied to whatever value the
// key holds at commit.
func (tx *Tx) IncrBy(key string, delta uint64) {
	tx.queue(fmt.Sprintf("incr %s %d\r\n", key, delta))
}
func (tx *Tx) DecrBy(key string, delta uint64) {
	tx.queue(fmt.Sprintf("decr %s %d\r\n", key, delta))
}

// Get reads a key. A key this transaction has Set or Deleted is served from
// the local write-set; otherwise the read goes to the server, joins the
// transaction's read set, and is revalidated at commit — so a committed
// transaction read a consistent snapshot.
func (tx *Tx) Get(key string) (value []byte, ok bool, err error) {
	if tx.err != nil {
		return nil, false, tx.err
	}
	if pw, hit := tx.writes[key]; hit {
		if pw.deleted {
			return nil, false, nil
		}
		return append([]byte(nil), pw.value...), true, nil
	}
	items, err := tx.c.gets("gets", []string{key})
	if err != nil {
		tx.err = err
		return nil, false, err
	}
	if len(items) == 0 {
		return nil, false, nil
	}
	return items[0].Value, true, nil
}

// Err reports the transaction's first queueing error (also returned by Tx).
func (tx *Tx) Err() error { return tx.err }
