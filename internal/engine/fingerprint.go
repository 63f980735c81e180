package engine

import (
	"time"

	"repro/internal/fingerprint"
)

// Workload fingerprinting: the engine half of internal/fingerprint.
//
// Cost contract (same as tracing): while disabled, every op path pays
// exactly one atomic pointer load (shard.fp, nil) and nothing else. While
// enabled, each shardWorker lazily binds a private single-writer recorder
// to the observer generation it sees, then records lock-free.

// fpRecord samples one engine operation into the shard's fingerprint.
// size < 0 means no value was involved; hit carries found/stored semantics.
func (w *shardWorker) fpRecord(op fingerprint.Op, hv uint64, key []byte, size int, hit bool) {
	fps := w.c.fp.Load() // the one atomic load on the disabled path
	if fps == nil {
		return
	}
	if w.fpFor != fps {
		w.fpRec = fps.Recorder()
		w.fpFor = fps
	}
	w.fpRec.Record(op, hv, key, size, hit)
}

// EnableFingerprint turns on workload fingerprinting and returns the
// observer: one per cache, created on first call (repeat calls return the
// same one), with a per-shard fingerprint each shard's op paths feed. A
// 1 Hz tick goroutine drives the decay windows and mirrors each shard
// runtime's abort-cause deltas into its fingerprint.
func (c *Cache) EnableFingerprint() *fingerprint.Observer {
	c.fpMu.Lock()
	defer c.fpMu.Unlock()
	o := c.fpObs.Load()
	if o == nil {
		o = fingerprint.New(len(c.shards))
		c.fpObs.Store(o)
	}
	for i, s := range c.shards {
		s.fp.Store(o.Shard(i))
	}
	c.fpLive.Store(o)
	if c.fpStop == nil {
		stop := make(chan struct{})
		c.fpStop = stop
		c.fpWG.Add(1)
		go c.fpTickLoop(stop, o)
	}
	return o
}

// DisableFingerprint stops sampling: op paths go back to the single nil
// load and the tick goroutine halts. Collected windows stay queryable
// through Fingerprint.
func (c *Cache) DisableFingerprint() {
	c.fpMu.Lock()
	defer c.fpMu.Unlock()
	for _, s := range c.shards {
		s.fp.Store(nil)
	}
	c.fpLive.Store(nil)
	if c.fpStop != nil {
		close(c.fpStop)
		c.fpStop = nil
	}
}

// Fingerprint returns the workload observer, or nil if fingerprinting was
// never enabled on this cache.
func (c *Cache) Fingerprint() *fingerprint.Observer { return c.fpObs.Load() }

// FingerprintEnabled reports whether sampling is currently on.
func (c *Cache) FingerprintEnabled() bool { return c.fpLive.Load() != nil }

// fingerprintLive returns the observer only while sampling is enabled —
// the gate the wire-transaction phase recorders load once per commit.
func (c *Cache) fingerprintLive() *fingerprint.Observer { return c.fpLive.Load() }

// fpTickLoop is the 1 Hz fingerprint clock: it folds each shard runtime's
// abort-cause counter deltas into the decayed abort-mix window, then
// advances the observer's decay tick. It survives Disable/Enable cycles
// only in the sense that Disable stops it and the next Enable starts a
// fresh one.
func (c *Cache) fpTickLoop(stop chan struct{}, o *fingerprint.Observer) {
	defer c.fpWG.Done()
	t := time.NewTicker(time.Second)
	defer t.Stop()
	prev := c.ShardStats() // nil on lock branches: no abort mix to mirror
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		cur := c.ShardStats()
		for i := range cur {
			sh := o.Shard(i)
			d, p := cur[i], prev[i]
			sh.AddAborts(fingerprint.AbortConflict, ctrDelta(d.Aborts, p.Aborts))
			sh.AddAborts(fingerprint.AbortStartSerial, ctrDelta(d.StartSerial, p.StartSerial))
			sh.AddAborts(fingerprint.AbortAbortSerial, ctrDelta(d.AbortSerial, p.AbortSerial))
			sh.AddAborts(fingerprint.AbortInflight, ctrDelta(d.InFlightSwitch, p.InFlightSwitch))
			sh.AddAborts(fingerprint.AbortWatchdog, ctrDelta(d.WatchdogSerializes, p.WatchdogSerializes))
		}
		prev = cur
		o.Tick()
	}
}

// ctrDelta is a clamped counter difference: a stats reset between samples
// makes cur < prev, which must read as "no new events", not underflow.
func ctrDelta(cur, prev uint64) uint64 {
	if cur < prev {
		return 0
	}
	return cur - prev
}

// Fingerprint exposes the workload observer to the protocol layer (nil if
// never enabled).
func (w *Worker) Fingerprint() *fingerprint.Observer { return w.c.Fingerprint() }

// FingerprintEnabled reports whether sampling is currently on.
func (w *Worker) FingerprintEnabled() bool { return w.c.FingerprintEnabled() }

// FingerprintLive returns the observer only while sampling is on — the
// protocol layer's gate for recording the txbegin→txcommit queue phase.
func (w *Worker) FingerprintLive() *fingerprint.Observer { return w.c.fingerprintLive() }

// EnableFingerprint turns sampling on through a worker handle (the stats
// surface and tests use this; cmd/memcached enables via the Cache).
func (w *Worker) EnableFingerprint() *fingerprint.Observer { return w.c.EnableFingerprint() }

// DisableFingerprint turns sampling off through a worker handle.
func (w *Worker) DisableFingerprint() { w.c.DisableFingerprint() }
