package stm

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// serialLock is the global readers/writer lock of the GCC TM runtime. Every
// speculative transaction holds it in read mode for its whole lifetime;
// serial-irrevocable transactions hold it in write mode. The single shared
// cache line it occupies is the bottleneck Figure 10 of the paper removes.
//
// When disabled (Config.NoSerialLock), the read side is free and the write
// side degrades to a plain mutex that excludes only other serial transactions.
type serialLock struct {
	state    atomic.Int64  // reader count; writerBit set while a writer owns or waits
	seq      atomic.Uint64 // write-acquisition count; read-only attempts subscribe to this
	disabled bool
	fallback sync.Mutex // write-side mutual exclusion when disabled
}

const writerBit int64 = 1 << 62

// RLock acquires the lock in read mode (transaction begin).
func (l *serialLock) RLock() {
	if l.disabled {
		return
	}
	spins := 0
	for {
		s := l.state.Load()
		if s&writerBit == 0 {
			if l.state.CompareAndSwap(s, s+1) {
				return
			}
			continue
		}
		spins++
		if spins > 64 {
			runtime.Gosched()
		}
	}
}

// RUnlock releases the read side (transaction commit or abort).
func (l *serialLock) RUnlock() {
	if l.disabled {
		return
	}
	l.state.Add(-1)
}

// Lock acquires the lock in write mode (serial transaction begin). Each
// acquisition bumps the subscription sequence, aborting in-flight read-only
// fast-path attempts at their next read or commit check.
func (l *serialLock) Lock() {
	if l.disabled {
		l.fallback.Lock()
		l.seq.Add(1)
		return
	}
	// Announce writer intent, then drain readers. Competing writers spin on
	// the bit; there is at most a handful (serialized transactions), so
	// fairness is not a concern here, matching libitm.
	spins := 0
	for {
		s := l.state.Load()
		if s&writerBit == 0 && l.state.CompareAndSwap(s, s|writerBit) {
			break
		}
		spins++
		if spins > 64 {
			runtime.Gosched()
		}
	}
	spins = 0
	for l.state.Load() != writerBit {
		spins++
		if spins > 64 {
			runtime.Gosched()
		}
	}
	l.seq.Add(1)
}

// trySubscribe returns the current acquisition sequence if no writer is
// active, without waiting. Callers that publish state before subscribing
// (beginSpeculative) use it so the publish/subscribe order is visible: a
// failure means a writer holds or awaits the lock right now.
//
// The sequence is read BEFORE the writer bit. Lock sets the bit, drains, and
// only then bumps the sequence, so a writer that slips in after the bit check
// leaves us holding a stale sequence and stillSubscribed fails. Read the other
// way round, the same writer hands us its own bumped sequence: we would run
// alongside its uninstrumented body and still pass every later check once it
// unlocks — a torn snapshot for the read-only reader.
func (l *serialLock) trySubscribe() (uint64, bool) {
	seq := l.seq.Load()
	if l.state.Load()&writerBit != 0 {
		return 0, false
	}
	return seq, true
}

// waitNoWriter spins until no writer holds or awaits the lock.
func (l *serialLock) waitNoWriter() {
	spins := 0
	for l.state.Load()&writerBit != 0 {
		spins++
		if spins > 64 {
			runtime.Gosched()
		}
	}
}

// stillSubscribed reports whether no serial writer ran or is running since
// the given sequence (the read-only fast path's per-read and commit check).
func (l *serialLock) stillSubscribed(seq uint64) bool {
	return l.seq.Load() == seq && l.state.Load()&writerBit == 0
}

// Unlock releases the write side.
func (l *serialLock) Unlock() {
	if l.disabled {
		l.fallback.Unlock()
		return
	}
	l.state.Add(-writerBit)
}
