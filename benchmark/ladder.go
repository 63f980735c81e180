//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/stm"
	"repro/internal/tm"
)

// The traced run replays the head of a workload's command stream on one
// goroutine, once per rung of a ladder of public entry points:
//
//	stm       bare tm.Atomic: an empty read-only transaction for a read,
//	          one read and one write for a write — the floor an op of that
//	          kind cannot go below
//	engine    the op through engine.Worker
//	protocol  the encoded command through protocol.Conn.ServeOne over an
//	          in-memory transport
//	server    the round over loopback TCP to an in-process server.ListenConfig
//
// Each call is bracketed by a span recorded from here, outside the layer.
// The rungs run one after the other, not nested, so a span's parent is the
// span of the same request one rung up, and a layer's self time is its span
// minus the span of the same request one rung down.
type layer uint8

const (
	layerSTM layer = iota
	layerEngine
	layerProtocol
	layerServer
	numLayers
)

var layerNames = [numLayers]string{"stm", "engine", "protocol", "server"}

// span is one call into one layer. For the server layer the call is a whole
// round, req is the round's first command and op the kind of that command.
type span struct {
	layer      layer
	op         opKind
	req        int32 // index of the command in the stream
	parent     int32 // span id one rung up, -1 if none
	start, end int64 // ns since the traced run began
}

// maxServerRounds caps the server rung, whose rounds cost a loopback round
// trip each: at depth 1 the full stream would take longer than the measured
// window itself.
const maxServerRounds = 40_000

// ladderResult is what the traced run measured, per layer.
type ladderResult struct {
	ops, rounds  int // commands replayed per in-process rung; rounds on the server rung
	floorRO      float64
	floorRW      float64
	rungNs       [numLayers]float64 // mean span, ns (server: per round)
	selfNs       [numLayers]float64 // mean self time, ns (server: per round)
	baselineNs   float64            // engine rung on the lock-based baseline branch
	engineAllocs float64
	engineBytes  float64
	protoAllocs  float64 // protocol rung minus engine rung
	protoBytes   float64
	traceRatio   float64 // server rung, time per round traced / untraced

	tally
}

// tracer owns the spans of one traced run. The slice is allocated up front so
// recording a span is two clock reads and one store.
type tracer struct {
	t0     time.Time
	n      int // commands per in-process rung
	rounds int // rounds on the server rung
	depth  int
	spans  []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// id is the span id of request (or round) i on layer l: layers occupy
// consecutive blocks of n (the server block is shorter).
func (t *tracer) id(l layer, i int) int32 { return int32(int(l)*t.n + i) }

func (t *tracer) record(l layer, i int, op opKind, start, end int64) {
	s := span{layer: l, op: op, req: int32(i), parent: -1, start: start, end: end}
	switch l {
	case layerSTM, layerEngine:
		s.parent = t.id(l+1, i)
	case layerProtocol:
		if r := i / t.depth; r < t.rounds {
			s.parent = t.id(layerServer, r)
		}
	case layerServer:
		s.req = int32(i * t.depth)
	}
	t.spans[t.id(l, i)] = s
}

func (t *tracer) dur(l layer, i int) float64 {
	s := &t.spans[t.id(l, i)]
	return float64(s.end - s.start)
}

// newCache builds an in-process cache the way cmd/memcached does for the
// child, prefilled with the workload's initial data.
func newCache(sp *spec, branch engine.Branch) (*engine.Cache, error) {
	cache := engine.New(engine.Config{
		Branch:    branch,
		MemLimit:  uint64(sp.memMB) << 20,
		HashPower: 16,
		Automove:  true,
	})
	cache.Start()
	w := cache.NewWorker()
	var kb []byte
	err := sp.prefillRounds(1, func(r *round) error {
		idx := r.cmds[0].key
		kb = appendKey(kb[:0], idx)
		if res := w.Set(kb, keyFlags(idx), 0, sp.storedValue(idx)); res != engine.Stored {
			return fmt.Errorf("prefill set %d: %v", idx, res)
		}
		return nil
	})
	if err != nil {
		cache.Stop()
		return nil, err
	}
	return cache, nil
}

// memStats is the allocation counters a rung is charged by.
func memStats() (mallocs, allocated float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs), float64(m.TotalAlloc)
}

// runLadder replays the first nOps commands of stream 0 up the ladder.
func runLadder(sp *spec, seed uint64, nOps int) (*ladderResult, *tracer, error) {
	nOps -= nOps % sp.depth
	rounds := min(nOps/sp.depth, maxServerRounds)
	res := &ladderResult{ops: nOps, rounds: rounds}
	tr := &tracer{t0: time.Now(), n: nOps, rounds: rounds, depth: sp.depth, spans: make([]span, int(layerServer)*nOps+rounds)}

	stmRung(sp, seed, tr, res)

	var err error
	var engAllocs, engBytes float64
	if _, engAllocs, engBytes, err = engineRung(sp, seed, engine.ITOnCommit, true, tr, res); err != nil {
		return nil, nil, err
	}
	if res.baselineNs, _, _, err = engineRung(sp, seed, engine.Baseline, false, tr, res); err != nil {
		return nil, nil, err
	}
	protoAllocs, protoBytes, err := protocolRung(sp, seed, tr, res)
	if err != nil {
		return nil, nil, err
	}
	if err := serverRung(sp, seed, tr, res); err != nil {
		return nil, nil, err
	}

	n := float64(nOps)
	res.engineAllocs, res.engineBytes = engAllocs/n, engBytes/n
	res.protoAllocs, res.protoBytes = (protoAllocs-engAllocs)/n, (protoBytes-engBytes)/n

	// Self times: a rung minus the rung below, request by request.
	var sum [numLayers]float64
	for i := 0; i < nOps; i++ {
		s, e, p := tr.dur(layerSTM, i), tr.dur(layerEngine, i), tr.dur(layerProtocol, i)
		sum[layerSTM] += s
		sum[layerEngine] += e
		sum[layerProtocol] += p
		res.selfNs[layerSTM] += s
		res.selfNs[layerEngine] += e - s
		res.selfNs[layerProtocol] += p - e
	}
	for r := 0; r < rounds; r++ {
		d := tr.dur(layerServer, r)
		sum[layerServer] += d
		res.selfNs[layerServer] += d
		for i := r * sp.depth; i < (r+1)*sp.depth; i++ {
			res.selfNs[layerServer] -= tr.dur(layerProtocol, i)
		}
	}
	for l := layerSTM; l < numLayers; l++ {
		cnt := n
		if l == layerServer {
			cnt = float64(rounds)
		}
		res.rungNs[l] = sum[l] / cnt
		res.selfNs[l] /= cnt
	}
	return res, tr, nil
}

// stmRung measures the transaction floors in tight loops and records one
// floor transaction per command of the stream.
func stmRung(sp *spec, seed uint64, tr *tracer, res *ladderResult) {
	rt := stm.New(stm.Config{Algorithm: stm.MLWT, CM: stm.CMSerialize})
	th := rt.NewThread()
	word := stm.NewTWord(0)
	ro := tm.Options{ReadOnly: true}
	empty := func(*stm.Tx) {}
	readWrite := func(tx *stm.Tx) { word.Store(tx, word.Load(tx)+1) }

	const floorIters = 500_000
	floor := func(o tm.Options, fn func(*stm.Tx)) float64 {
		t0 := time.Now()
		for i := 0; i < floorIters; i++ {
			_ = tm.Atomic(th, o, fn) // fn never cancels and no retry limit is set: always nil
		}
		return float64(time.Since(t0)) / floorIters
	}
	res.floorRO = floor(ro, empty)
	res.floorRW = floor(tm.Options{}, readWrite)

	g := newGen(sp, seed, 0)
	var r round
	for i := 0; i < tr.n; i += sp.depth {
		g.fill(&r)
		for j, c := range r.cmds {
			write := c.kind == opSet || c.kind == opIncr
			t0 := tr.now()
			if write {
				_ = tm.Atomic(th, tm.Options{}, readWrite)
			} else {
				_ = tm.Atomic(th, ro, empty)
			}
			tr.record(layerSTM, i+j, c.kind, t0, tr.now())
		}
	}
}

// engineRung replays the stream through engine.Worker on a fresh cache of
// the given branch. Spans are kept only when record is set; the calls are
// timed the same way either way.
func engineRung(sp *spec, seed uint64, branch engine.Branch, record bool, tr *tracer, res *ladderResult) (meanNs, allocs, allocated float64, err error) {
	cache, err := newCache(sp, branch)
	if err != nil {
		return 0, 0, 0, err
	}
	defer cache.Stop()
	w := cache.NewWorker()
	chk := newChecker(sp, nil)
	g := newGen(sp, seed, 0)
	var (
		r     round
		kb    []byte
		mk    = make([][]byte, sp.multi)
		total int64

		val   []byte
		flags uint32
		found bool
		multi []engine.GetResult
		sr    engine.StoreResult
		ctr   uint64
		dr    engine.DeltaResult
	)
	m0, b0 := memStats()
	for i := 0; i < tr.n; i += sp.depth {
		g.fill(&r)
		for j, c := range r.cmds {
			kb = kb[:0]
			if c.kind == opMultiGet {
				for k, idx := range r.keys[c.off : c.off+c.n] {
					kb = appendKey(kb, idx)
					mk[k] = kb[len(kb)-keyLen:]
				}
			} else {
				kb = appendKey(kb, c.key)
			}
			start := tr.now()
			switch c.kind {
			case opGet:
				val, flags, _, found = w.Get(kb)
			case opSet:
				sr = w.Set(kb, keyFlags(c.key), 0, sp.storedValue(c.key))
			case opIncr:
				ctr, dr = w.Incr(kb, 1)
			case opMultiGet:
				multi = w.GetMulti(mk)
			}
			end := tr.now()
			total += end - start
			if record {
				tr.record(layerEngine, i+j, c.kind, start, end)
			}

			chk.attempted++
			switch c.kind {
			case opGet:
				chk.lookup(c.key, flags, val, found)
			case opSet:
				if sr != engine.Stored {
					chk.fail("engine set %d: %v", c.key, sr)
				}
			case opIncr:
				chk.acked[c.key]++
				if dr != engine.DeltaOK || ctr != chk.acked[c.key] {
					chk.fail("engine incr %d: got %d (%v), want %d", c.key, ctr, dr, chk.acked[c.key])
				}
			case opMultiGet:
				for k, idx := range r.keys[c.off : c.off+c.n] {
					chk.lookup(idx, multi[k].Flags, multi[k].Value, multi[k].Found)
				}
			}
		}
	}
	m1, b1 := memStats()
	res.add(chk.tally)
	return float64(total) / float64(tr.n), m1 - m0, b1 - b0, nil
}

// memRW is the protocol rung's transport: the round's request bytes in, the
// replies out. It offers the gathered write the real transport offers, so
// large multi-get replies take the same path as over TCP.
type memRW struct {
	in  []byte
	out bytes.Buffer
}

func (m *memRW) Read(p []byte) (int, error) {
	if len(m.in) == 0 {
		return 0, io.EOF
	}
	n := copy(p, m.in)
	m.in = m.in[n:]
	return n, nil
}

func (m *memRW) Write(p []byte) (int, error) { return m.out.Write(p) }

func (m *memRW) WriteBuffers(bufs net.Buffers) (int64, error) {
	var n int64
	for _, b := range bufs {
		m.out.Write(b)
		n += int64(len(b))
	}
	return n, nil
}

// protocolRung replays the stream as encoded commands through
// protocol.Conn.ServeOne: a round's bytes are made readable at once, as a
// pipelining client's would be, and each command is one call.
func protocolRung(sp *spec, seed uint64, tr *tracer, res *ladderResult) (allocs, allocated float64, err error) {
	cache, err := newCache(sp, engine.ITOnCommit)
	if err != nil {
		return 0, 0, err
	}
	defer cache.Stop()
	rw := &memRW{}
	pc := protocol.NewConn(cache.NewWorker(), rw)
	var replies bytes.Reader
	chk := newChecker(sp, &replies)
	g := newGen(sp, seed, 0)
	var r round
	m0, b0 := memStats()
	for i := 0; i < tr.n; i += sp.depth {
		g.fill(&r)
		rw.in = r.req
		rw.out.Reset()
		for j, c := range r.cmds {
			start := tr.now()
			err := pc.ServeOne()
			end := tr.now()
			if err != nil {
				return 0, 0, fmt.Errorf("protocol rung, command %d: %w", i+j, err)
			}
			tr.record(layerProtocol, i+j, c.kind, start, end)
		}
		replies.Reset(rw.out.Bytes())
		chk.br.Reset(&replies)
		if err := chk.readRound(&r); err != nil {
			return 0, 0, fmt.Errorf("protocol rung: %w", err)
		}
	}
	m1, b1 := memStats()
	res.add(chk.tally)
	return m1 - m0, b1 - b0, nil
}

// serverRung replays rounds over loopback TCP to an in-process server with
// the child's transport settings: res.rounds traced rounds, then as many
// untraced ones further down the stream, whose ratio is what tracing costs.
func serverRung(sp *spec, seed uint64, tr *tracer, res *ladderResult) error {
	cache, err := newCache(sp, engine.ITOnCommit)
	if err != nil {
		return err
	}
	defer cache.Stop()
	srv, err := server.ListenConfig(cache, server.Config{Addr: "127.0.0.1:0", EventLoop: true})
	if err != nil {
		return err
	}
	defer srv.Close()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		return err
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(2 * time.Minute))
	chk := newChecker(sp, nc)
	g := newGen(sp, seed, 0)
	var r round
	roundTrip := func() error {
		if _, err := nc.Write(r.req); err != nil {
			return err
		}
		return chk.readRound(&r)
	}
	t0 := tr.now()
	for i := 0; i < tr.rounds; i++ {
		g.fill(&r)
		start := tr.now()
		if err := roundTrip(); err != nil {
			return fmt.Errorf("server rung: %w", err)
		}
		tr.record(layerServer, i, r.cmds[0].kind, start, tr.now())
	}
	t1 := tr.now()
	for i := 0; i < tr.rounds; i++ {
		g.fill(&r)
		if err := roundTrip(); err != nil {
			return fmt.Errorf("server rung: %w", err)
		}
	}
	res.traceRatio = float64(t1-t0) / float64(tr.now()-t1)
	res.add(chk.tally)
	if n := srv.ConnErrors(); n.IO.Load()+n.Protocol.Load()+n.Timeout.Load() != 0 {
		return fmt.Errorf("server rung: connection errors %d/%d/%d (io/protocol/timeout)",
			n.IO.Load(), n.Protocol.Load(), n.Timeout.Load())
	}
	return nil
}

// traceRequestsWritten is how many requests' spans go into the trace file; the
// per-layer summary in the same file covers all of them.
const traceRequestsWritten = 2000

// writeTrace writes benchmark/out/trace-<workload>.json: the per-layer
// summary and the spans of the first requests of the stream.
func writeTrace(dir string, sp *spec, seed uint64, res *ladderResult, tr *tracer) (string, error) {
	type jsonSpan struct {
		ID      int32  `json:"id"`
		Layer   string `json:"layer"`
		Op      string `json:"op"`
		Req     int32  `json:"req"`
		Parent  int32  `json:"parent"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	type jsonLayer struct {
		Spans      int     `json:"spans"`
		MeanNs     float64 `json:"mean_ns"`
		SelfMeanNs float64 `json:"self_mean_ns"`
	}
	out := struct {
		Workload string               `json:"workload"`
		Seed     uint64               `json:"seed"`
		Ops      int                  `json:"ops"`
		Rounds   int                  `json:"server_rounds"`
		Depth    int                  `json:"depth"`
		Layers   map[string]jsonLayer `json:"layers"`
		Spans    []jsonSpan           `json:"spans"`
	}{Workload: sp.name, Seed: seed, Ops: res.ops, Rounds: res.rounds, Depth: sp.depth, Layers: map[string]jsonLayer{}}
	for l := layerSTM; l < numLayers; l++ {
		n := res.ops
		if l == layerServer {
			n = res.rounds
		}
		out.Layers[layerNames[l]] = jsonLayer{Spans: n, MeanNs: res.rungNs[l], SelfMeanNs: res.selfNs[l]}
	}
	for id, s := range tr.spans {
		if s.req < traceRequestsWritten {
			out.Spans = append(out.Spans, jsonSpan{int32(id), layerNames[s.layer], opNames[s.op], s.req, s.parent, s.start, s.end})
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+sp.name+".json")
	b, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
