// Package fingerprint characterizes the live workload per TM shard: a
// Space-Saving hot-key sketch, the read/write/delete mix, a key-skew
// concentration estimate, a value-size log-histogram, and the abort-cause
// mix, all kept in exponentially decayed windows so consumers (stats
// fingerprint, /debug/fingerprint, mctop) see the last few seconds of
// traffic rather than process lifetime totals.
//
// The design contract mirrors txobs: when fingerprinting is disabled the
// engine hot path pays exactly one atomic pointer load (nil).
// When enabled, each engine worker owns a private single-writer Recorder —
// all fields atomic, so any number of snapshot readers race it without
// locks and without upsetting the race detector, and the record path takes
// no locks and (on a stable hot set) performs no allocations.
package fingerprint

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Op classifies one engine operation for the mix counters.
type Op uint8

const (
	OpRead Op = iota
	OpWrite
	OpDelete
	OpDelta
	OpTouch
	numOps
)

// Abort causes mirrored from the per-shard STM runtime by the observer
// tick (the fingerprint layer itself never imports stm).
const (
	AbortConflict = iota // plain validation/acquisition aborts
	AbortStartSerial
	AbortAbortSerial // abort-threshold escalations to the serial lock
	AbortInflight    // in-flight config switches
	AbortWatchdog    // starvation-watchdog serializations
	numAborts
)

// decayEvery: the observer decays its windows every decayEvery ticks. At
// the engine's 1 Hz tick this gives a half-life of 4 s — responsive enough
// for mctop, stable enough that a single quiet second does not erase the
// picture.
const decayEvery = 4

// Recorder is the per-engine-worker sampling point. Exactly one goroutine
// writes it (the worker that asked the shard for it); snapshots may read
// it at any time.
type Recorder struct {
	ops    [numOps]atomic.Uint64
	hits   atomic.Uint64
	misses atomic.Uint64
	vsize  LogHist
	sketch Sketch
}

// Record samples one operation. size < 0 means "no value involved"
// (deletes, touches, misses); hit carries found/stored semantics.
func (r *Recorder) Record(op Op, hv uint64, key []byte, size int, hit bool) {
	if op < numOps {
		r.ops[op].Add(1)
	}
	if hit {
		r.hits.Add(1)
	} else {
		r.misses.Add(1)
	}
	if size >= 0 {
		r.vsize.Record(uint64(size))
	}
	r.sketch.Record(hv, key)
}

func (r *Recorder) decay() {
	for i := range r.ops {
		r.ops[i].Store(r.ops[i].Load() / 2)
	}
	r.hits.Store(r.hits.Load() / 2)
	r.misses.Store(r.misses.Load() / 2)
	r.vsize.decay()
	r.sketch.decay()
}

func (r *Recorder) reset() {
	for i := range r.ops {
		r.ops[i].Store(0)
	}
	r.hits.Store(0)
	r.misses.Store(0)
	r.vsize.Reset()
	r.sketch.reset()
}

// Shard aggregates the recorders of every worker that has touched one TM
// shard, plus the shard's abort-cause window (fed by the observer tick as
// plain deltas).
type Shard struct {
	mu     sync.Mutex
	recs   []*Recorder
	aborts [numAborts]atomic.Uint64
}

// Recorder allocates and registers a new single-writer recorder. Called
// once per (worker, shard, enable-generation) — never on the op path.
func (s *Shard) Recorder() *Recorder {
	r := &Recorder{}
	s.mu.Lock()
	s.recs = append(s.recs, r)
	s.mu.Unlock()
	return r
}

// AddAborts folds one sampling interval's abort-cause deltas into the
// decayed window. cause is one of the Abort* constants.
func (s *Shard) AddAborts(cause int, n uint64) {
	if cause >= 0 && cause < numAborts && n > 0 {
		s.aborts[cause].Add(n)
	}
}

func (s *Shard) recorders() []*Recorder {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Recorder(nil), s.recs...)
}

func (s *Shard) decay() {
	for _, r := range s.recorders() {
		r.decay()
	}
	for i := range s.aborts {
		s.aborts[i].Store(s.aborts[i].Load() / 2)
	}
}

func (s *Shard) reset() {
	for _, r := range s.recorders() {
		r.reset()
	}
	for i := range s.aborts {
		s.aborts[i].Store(0)
	}
}

// AbortsSnapshot is the decayed abort-cause window of one shard.
type AbortsSnapshot struct {
	Conflicts      uint64 `json:"conflicts"`
	StartSerial    uint64 `json:"start_serial"`
	AbortSerial    uint64 `json:"abort_serial"`
	InflightSwitch uint64 `json:"inflight_switch"`
	Watchdog       uint64 `json:"watchdog"`
}

// ShardSnapshot is one shard's merged fingerprint.
type ShardSnapshot struct {
	Ops           uint64         `json:"ops"`
	Reads         uint64         `json:"reads"`
	Writes        uint64         `json:"writes"`
	Deletes       uint64         `json:"deletes"`
	Deltas        uint64         `json:"deltas"`
	Touches       uint64         `json:"touches"`
	Hits          uint64         `json:"hits"`
	Misses        uint64         `json:"misses"`
	Concentration float64        `json:"concentration"`
	HotKeys       []HotKey       `json:"hot_keys"`
	VSize         HistSnapshot   `json:"vsize"`
	Aborts        AbortsSnapshot `json:"aborts"`
}

// Snapshot is the whole observer, JSON-shaped for /debug/fingerprint.
type Snapshot struct {
	Shards        []ShardSnapshot `json:"shards"`
	TxnQueue      HistSnapshot    `json:"txn_queue_ns"`
	TxnValidate   HistSnapshot    `json:"txn_validate_ns"`
	TxnApply      HistSnapshot    `json:"txn_apply_ns"`
	TxnSerialWait HistSnapshot    `json:"txn_serial_wait_ns"`
}

// Observer owns the per-shard fingerprints plus the wire-transaction phase
// histograms (cache-global: a cross-shard commit has no single home shard).
type Observer struct {
	shards []*Shard
	ticks  atomic.Uint64

	TxnQueue      LogHist
	TxnValidate   LogHist
	TxnApply      LogHist
	TxnSerialWait LogHist
}

// New builds an observer for n shards.
func New(n int) *Observer {
	o := &Observer{shards: make([]*Shard, n)}
	for i := range o.shards {
		o.shards[i] = &Shard{}
	}
	return o
}

// NumShards reports the shard count the observer was built for.
func (o *Observer) NumShards() int { return len(o.shards) }

// Shard returns the fingerprint home of shard i.
func (o *Observer) Shard(i int) *Shard { return o.shards[i] }

// Tick advances the decay clock; the engine sampler calls it at 1 Hz.
// Every decayEvery-th tick halves all windows.
func (o *Observer) Tick() {
	if o.ticks.Add(1)%decayEvery != 0 {
		return
	}
	for _, s := range o.shards {
		s.decay()
	}
}

// merge folds all recorders of shard s into one view.
func (s *Shard) snapshot() ShardSnapshot {
	var snap ShardSnapshot
	byHash := make(map[uint64]HotKey)
	var vsize HistSnapshot
	var vsum, vcount, vmax uint64
	var counts [histBuckets]uint64
	for _, r := range s.recorders() {
		snap.Reads += r.ops[OpRead].Load()
		snap.Writes += r.ops[OpWrite].Load()
		snap.Deletes += r.ops[OpDelete].Load()
		snap.Deltas += r.ops[OpDelta].Load()
		snap.Touches += r.ops[OpTouch].Load()
		snap.Hits += r.hits.Load()
		snap.Misses += r.misses.Load()
		n := int(r.sketch.used.Load())
		for i := 0; i < n; i++ {
			e := &r.sketch.entries[i]
			c := e.count.Load()
			if c == 0 {
				continue
			}
			kp := e.key.Load()
			if kp == nil {
				continue
			}
			hv := e.hash.Load()
			prev := byHash[hv]
			byHash[hv] = HotKey{Key: *kp, Count: prev.Count + c, Err: prev.Err + e.errs.Load()}
		}
		for i := range counts {
			counts[i] += r.vsize.buckets[i].Load()
		}
		vsum += r.vsize.sum.Load()
		if m := r.vsize.max.Load(); m > vmax {
			vmax = m
		}
	}
	snap.Ops = snap.Reads + snap.Writes + snap.Deletes + snap.Deltas + snap.Touches
	for _, c := range counts {
		vcount += c
	}
	vsize = summarize(counts, vcount, vsum, vmax)
	snap.VSize = vsize
	hot := make([]HotKey, 0, len(byHash))
	for _, hk := range byHash {
		hot = append(hot, hk)
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].Count != hot[j].Count {
			return hot[i].Count > hot[j].Count
		}
		return hot[i].Key < hot[j].Key
	})
	if len(hot) > TopK {
		hot = hot[:TopK]
	}
	snap.HotKeys = hot
	var hotSum uint64
	for _, hk := range hot {
		hotSum += hk.Count
	}
	if snap.Ops > 0 {
		snap.Concentration = float64(hotSum) / float64(snap.Ops)
		if snap.Concentration > 1 {
			snap.Concentration = 1 // racing decay can skew the ratio past 1
		}
	}
	snap.Aborts = AbortsSnapshot{
		Conflicts:      s.aborts[AbortConflict].Load(),
		StartSerial:    s.aborts[AbortStartSerial].Load(),
		AbortSerial:    s.aborts[AbortAbortSerial].Load(),
		InflightSwitch: s.aborts[AbortInflight].Load(),
		Watchdog:       s.aborts[AbortWatchdog].Load(),
	}
	return snap
}

// summarize builds a HistSnapshot from pre-merged bucket counts.
func summarize(counts [histBuckets]uint64, total, sum, max uint64) HistSnapshot {
	s := HistSnapshot{Count: total, Max: max}
	if total == 0 {
		return s
	}
	s.Mean = sum / total
	quantile := func(q float64) uint64 {
		want := uint64(q * float64(total))
		if want >= total {
			want = total - 1
		}
		var cum uint64
		for i, c := range counts {
			cum += c
			if cum > want {
				if i == 0 {
					return 0
				}
				ub := (uint64(1) << uint(i)) - 1
				if ub > max && max != 0 {
					ub = max
				}
				return ub
			}
		}
		return max
	}
	s.P50 = quantile(0.50)
	s.P95 = quantile(0.95)
	s.P99 = quantile(0.99)
	return s
}

// Snapshot merges every shard and the transaction-phase histograms.
func (o *Observer) Snapshot() Snapshot {
	out := Snapshot{
		Shards:        make([]ShardSnapshot, len(o.shards)),
		TxnQueue:      o.TxnQueue.Snapshot(),
		TxnValidate:   o.TxnValidate.Snapshot(),
		TxnApply:      o.TxnApply.Snapshot(),
		TxnSerialWait: o.TxnSerialWait.Snapshot(),
	}
	for i, s := range o.shards {
		out.Shards[i] = s.snapshot()
	}
	return out
}

// Reset clears every counter window and the txn-phase histograms —
// exactly-once semantics belong to the caller (the stats reset router).
func (o *Observer) Reset() {
	for _, s := range o.shards {
		s.reset()
	}
	o.TxnQueue.Reset()
	o.TxnValidate.Reset()
	o.TxnApply.Reset()
	o.TxnSerialWait.Reset()
}
