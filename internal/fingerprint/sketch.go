package fingerprint

import "sync/atomic"

// TopK is the hot-key sketch capacity per recorder. Space-Saving guarantees
// any key with true frequency > N/TopK is present, which is exactly the
// "one or a few hot keys" question a contention diagnosis asks.
const TopK = 16

// sketchEntry is one monitored key. All fields are atomic so snapshot
// readers can race the single writer without locks; a reader that observes
// a mid-replacement entry sees a key/count pairing that is off by one
// replacement — tolerable for telemetry, invisible after the next window.
type sketchEntry struct {
	hash  atomic.Uint64
	count atomic.Uint64
	errs  atomic.Uint64 // Space-Saving overestimation bound for this entry
	key   atomic.Pointer[string]
}

// Sketch is a Space-Saving top-K frequency sketch (Metwally et al.) with a
// SINGLE writer — the engine worker that owns the recorder — and lock-free
// concurrent readers. The key string is materialized only when an entry is
// first monitored or replaced, so steady state on a stable hot set costs
// zero allocations per recorded op.
type Sketch struct {
	entries [TopK]sketchEntry
	used    atomic.Int32
}

// Record counts one access to the key identified by its full 64-bit item
// hash. Distinct keys colliding on all 64 bits are treated as one — the
// routing hash already avalanches, so this is beyond negligible for a
// top-16 telemetry sketch.
func (s *Sketch) Record(hv uint64, key []byte) {
	n := int(s.used.Load())
	minIdx := 0
	minCnt := ^uint64(0)
	for i := 0; i < n; i++ {
		e := &s.entries[i]
		if e.hash.Load() == hv {
			e.count.Add(1)
			return
		}
		if c := e.count.Load(); c < minCnt {
			minCnt, minIdx = c, i
		}
	}
	if n < TopK {
		e := &s.entries[n]
		k := string(key)
		e.key.Store(&k)
		e.hash.Store(hv)
		e.errs.Store(0)
		e.count.Store(1)
		s.used.Store(int32(n + 1))
		return
	}
	// Evict the minimum: the newcomer inherits its count as the
	// overestimation error, per the Space-Saving update rule.
	e := &s.entries[minIdx]
	k := string(key)
	e.key.Store(&k)
	e.hash.Store(hv)
	e.errs.Store(minCnt)
	e.count.Store(minCnt + 1)
}

// decay halves every monitored count, aging the window. Runs on the
// observer tick concurrently with the writer; a lost increment across the
// load/store pair only blurs the window boundary.
func (s *Sketch) decay() {
	n := int(s.used.Load())
	for i := 0; i < n; i++ {
		e := &s.entries[i]
		e.count.Store(e.count.Load() / 2)
		e.errs.Store(e.errs.Load() / 2)
	}
}

// reset forgets every monitored key.
func (s *Sketch) reset() {
	s.used.Store(0)
	for i := range s.entries {
		s.entries[i].count.Store(0)
		s.entries[i].errs.Store(0)
		s.entries[i].hash.Store(0)
	}
}

// HotKey is one entry of a sketch snapshot.
type HotKey struct {
	Key   string `json:"key"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err"`
}

// collect appends the sketch's live entries to dst.
func (s *Sketch) collect(dst []HotKey) []HotKey {
	n := int(s.used.Load())
	for i := 0; i < n; i++ {
		e := &s.entries[i]
		c := e.count.Load()
		if c == 0 {
			continue
		}
		kp := e.key.Load()
		if kp == nil {
			continue
		}
		dst = append(dst, HotKey{Key: *kp, Count: c, Err: e.errs.Load()})
	}
	return dst
}
