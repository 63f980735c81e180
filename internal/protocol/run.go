package protocol

import (
	"bytes"
	"encoding/binary"
	"slices"
	"time"

	"repro/internal/engine"
)

// A get run answers pipelined gets from one read-only snapshot. A text get,
// or a binary GETQ/GETKQ, whose connection already holds more complete
// commands in its read buffer looks ahead without consuming anything: each
// following command that is a complete get of the same protocol with valid
// keys joins the run, until the first command that is anything else, is not
// complete yet, or would pass the cap (see admit). One GetMultiInto then
// looks up every key of the run, so each shard commits one read-only batch
// for the whole run instead of one transaction per command.
//
// ServeOne still serves one command: the run's first command replies at once,
// and each later one stays in the read buffer, stashed with the place of its
// results, until its own ServeOne consumes it and replies from the stash. So
// the transport's per-command hooks, burst caps and counters see every
// command, as they would without the run.
//
// The run is linearizable: each of its commands was invoked — its bytes had
// arrived — before the snapshot, and is answered after it, so each takes
// effect at the snapshot. A write from the same connection ends the run, so
// the connection still reads its own writes.

// stashed is one command of a get run that waits in the read buffer for its
// ServeOne, its results already in the run's snapshot.
type stashed struct {
	// left is how many bytes the read buffer holds while this command is the
	// next in it. Nothing refills the buffer while a run is pending, so the
	// count tells the command apart from any other.
	left     int
	size     int       // the command's line or frame, in bytes
	first, n int       // its keys are sc.keys[first:first+n], its results sc.snap's
	req      binHeader // a binary command's frame header
	binary   bool
	withCAS  bool // a text gets
}

// dropRun forgets a run: a connection that takes or returns a pooled scratch
// must not answer from another connection's snapshot.
func (s *scratch) dropRun() {
	s.stash, s.next, s.snap = s.stash[:0], 0, nil
}

// runWindow starts a run behind the command whose keys sc.keys holds. It
// returns the bytes buffered past that command, from which the lookahead takes
// the run's later commands, or nil when there are none or the first command
// alone fills the cap.
func (c *Conn) runWindow() []byte {
	sc := c.sc
	sc.dropRun()
	n := c.r.Buffered()
	if n == 0 {
		return nil
	}
	sc.perShard = slices.Grow(sc.perShard[:0], c.worker.NumShards())[:c.worker.NumShards()]
	clear(sc.perShard)
	if !c.admit(sc.keys) {
		return nil
	}
	window, _ := c.r.Peek(n) // only buffered bytes: neither blocks nor fails
	// A window's keys fit in its bytes, so ahead never moves under them.
	sc.ahead = slices.Grow(sc.ahead[:0], n)
	return window
}

// admit counts keys against the run's cap: at most engine.MultiGetBatch keys
// per shard, so that each shard answers the whole run with one batch.
func (c *Conn) admit(keys [][]byte) bool {
	for _, k := range keys {
		s := c.worker.ShardOf(k)
		if c.sc.perShard[s]++; c.sc.perShard[s] > engine.MultiGetBatch {
			return false
		}
	}
	return true
}

// join adds the command s, whose keys are sc.keys[at:], to the run, unless
// they pass the cap; then the run ends before it. The keys move out of the
// read buffer, which the run's later commands consume.
func (c *Conn) join(s stashed, at int) bool {
	sc := c.sc
	if !c.admit(sc.keys[at:]) {
		sc.keys = sc.keys[:at]
		return false
	}
	for i := at; i < len(sc.keys); i++ {
		off := len(sc.ahead)
		sc.ahead = append(sc.ahead, sc.keys[i]...)
		sc.keys[i] = sc.ahead[off:len(sc.ahead):len(sc.ahead)]
	}
	s.first, s.n = at, len(sc.keys)-at
	sc.stash = append(sc.stash, s)
	return true
}

// readAheadGets is the text lookahead. Only a get line is split; any other
// line is told apart by its first word, which ends the run.
func (c *Conn) readAheadGets() {
	window := c.runWindow()
	sc := c.sc
	for off := 0; off < len(window); {
		eol := bytes.IndexByte(window[off:], '\n')
		if eol < 0 {
			break // not complete yet: the run never waits for bytes
		}
		line := window[off : off+eol+1]
		word, rest := cutWord(line)
		withCAS := string(word) == "gets"
		if !withCAS && string(word) != "get" {
			if !c.joinAcrossLines {
				break
			}
			off += len(line)
			continue
		}
		at := len(sc.keys)
		sc.keys = splitFields(sc.keys, rest)
		if keysError(sc.keys[at:]) != "" {
			sc.keys = sc.keys[:at]
			break // its own ServeOne refuses it
		}
		if !c.join(stashed{left: len(window) - off, size: len(line), withCAS: withCAS}, at) {
			break
		}
		off += len(line)
	}
}

// readAheadQuietGets is the binary lookahead: well-formed GETQ and GETKQ
// frames join the run. A malformed one ends it, and its own ServeOne refuses
// it with an error status.
func (c *Conn) readAheadQuietGets() {
	window := c.runWindow()
	sc := c.sc
	for off := 0; off+24 <= len(window); {
		hdr := window[off : off+24]
		if hdr[0] != binMagicReq || (hdr[1] != OpGetQ && hdr[1] != OpGetKQ) {
			break
		}
		keyLen := int(binary.BigEndian.Uint16(hdr[2:4]))
		bodyLen := int(binary.BigEndian.Uint32(hdr[8:12]))
		if hdr[4] != 0 || keyLen == 0 || keyLen > MaxKeyLen || keyLen != bodyLen || off+24+bodyLen > len(window) {
			break
		}
		at := len(sc.keys)
		sc.keys = append(sc.keys, window[off+24:off+24+bodyLen])
		req := binHeader{opcode: hdr[1], opaque: binary.BigEndian.Uint32(hdr[12:16])} // what a reply echoes
		if !c.join(stashed{left: len(window) - off, size: 24 + bodyLen, req: req, binary: true}, at) {
			break
		}
		off += 24 + bodyLen
	}
}

// lookUpRun takes the run's snapshot: one GetMultiInto over every key of the
// run, the first command's first.
func (c *Conn) lookUpRun() []engine.GetResult {
	c.sc.snap = c.worker.GetMultiInto(&c.sc.get, c.sc.keys)
	return c.sc.snap
}

// nextStashed returns the stashed command the read buffer holds next, if any.
func (c *Conn) nextStashed() *stashed {
	sc := c.sc
	if sc.next == len(sc.stash) || sc.stash[sc.next].left != c.r.Buffered() {
		return nil
	}
	sc.next++
	return &sc.stash[sc.next-1]
}

// serveStashed consumes a stashed command and writes its reply from the
// run's snapshot, timed as its command when tracing is on.
func (c *Conn) serveStashed(s *stashed) error {
	c.r.Discard(s.size)
	keys := c.sc.keys[s.first : s.first+s.n]
	results := c.sc.snap[s.first : s.first+s.n]
	c.noteShared()
	var t0 time.Time
	o := c.worker.Observer()
	if o != nil && o.Enabled() {
		t0 = time.Now()
	}
	var err error
	if s.binary {
		err = c.replyQuietGet(s.req, keys[0], &results[0])
	} else {
		if s.n == 1 {
			c.noteKey(keys[0])
		}
		err = c.writeGetReply(keys, results, s.withCAS)
	}
	if !t0.IsZero() {
		name := textCmdNames[cmdGet]
		if s.withCAS {
			name = textCmdNames[cmdGets]
		}
		o.ObserveCommand(name, time.Since(t0))
	}
	return err
}

// cutWord splits line after its first whitespace-separated word.
func cutWord(line []byte) (word, rest []byte) {
	i := 0
	for i < len(line) && isSpace(line[i]) {
		i++
	}
	j := i
	for j < len(line) && !isSpace(line[j]) {
		j++
	}
	return line[i:j], line[j:]
}
