package stm

import (
	"time"

	"repro/internal/txobs"
)

// Starvation watchdog.
//
// The paper's §4 diagnoses starvation from abort-rate variance after the
// fact; the maintenance-thread starvation incident in DESIGN.md (20×
// run-to-run variance) was likewise found post-hoc. The watchdog turns that
// diagnosis into a live controller: a goroutine scans every registered
// thread and, when one is starving — too many consecutive aborts of the same
// source-level transaction, or too long since that transaction first began —
// escalates it through the contention-manager ladder independent of the
// configured CM:
//
//	level 0 → 1: apply randomized exponential backoff between retries
//	level 1 → 2: run the next attempt serial-irrevocable (guaranteed progress)
//
// A NoSerialLock runtime stops at level 1. Its "serial" mode is in-place,
// uninstrumented writes under a mutex speculative transactions neither hold
// nor subscribe to, so a forced serial attempt races every speculative one
// (the paper removes the lock only once nothing serializes any more).
//
// Escalation resets when the transaction finally commits (or cancels). The
// actions are counted in Stats (WatchdogBackoffs, WatchdogSerializes) and
// surfaced by the server's `stats` command, so a production starvation event
// is visible, attributed, and bounded instead of an unexplained variance.

// escalation levels stored in Thread.escalate.
const (
	escalateNone      = 0
	escalateBackoff   = 1
	escalateSerialize = 2
)

// StartWatchdog launches the starvation watchdog when Config.WatchdogInterval
// is non-zero. It is a no-op otherwise, or when already running. Call
// StopWatchdog to halt it.
func (rt *Runtime) StartWatchdog() {
	if rt.cfg.WatchdogInterval <= 0 {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.watchStop != nil {
		return
	}
	rt.watchStop = make(chan struct{})
	rt.watchWG.Add(1)
	go rt.watchdogLoop(rt.watchStop)
}

// StopWatchdog halts the watchdog and waits for it to exit. Safe to call
// multiple times and without a prior StartWatchdog.
func (rt *Runtime) StopWatchdog() {
	rt.mu.Lock()
	stop := rt.watchStop
	rt.watchStop = nil
	rt.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	rt.watchWG.Wait()
}

func (rt *Runtime) watchdogLoop(stop chan struct{}) {
	defer rt.watchWG.Done()
	t := time.NewTicker(rt.cfg.WatchdogInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			rt.watchdogScan(time.Now())
		}
	}
}

// watchdogScan inspects each thread once and escalates the starving ones one
// level. Escalating one level per scan (rather than straight to serial)
// keeps the cheap remedy first: backoff resolves most livelock-shaped
// starvation, and serialization — which costs every other thread its
// concurrency — is reserved for transactions backoff did not save.
func (rt *Runtime) watchdogScan(now time.Time) {
	snapP := rt.thSnap.Load()
	if snapP == nil {
		return
	}
	for _, th := range *snapP {
		since := th.runSince.Load()
		starving := th.consecAborts.Load() >= rt.cfg.WatchdogAborts ||
			(since != 0 && now.UnixNano()-since >= int64(rt.cfg.WatchdogAge))
		if !starving {
			continue
		}
		switch th.escalate.Load() {
		case escalateNone:
			th.escalate.Store(escalateBackoff)
			rt.stats.WatchdogBackoffs.Add(1)
			rt.obsEvent(txobs.KWatchdogBackoff, "watchdog: backoff")
		case escalateBackoff:
			if rt.cfg.NoSerialLock {
				continue
			}
			th.escalate.Store(escalateSerialize)
			rt.stats.WatchdogSerializes.Add(1)
			rt.obsEvent(txobs.KWatchdogSerialize, "watchdog: serialize")
		}
	}
}
