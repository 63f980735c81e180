package stm

import (
	"testing"
	"time"
)

// TestWatchdogLadder drives the escalation ladder by hand — one scan per
// attempt of a transaction that keeps aborting — so the outcome does not
// depend on a ticker or on the scheduler. With the serial lock the ladder
// ends in a serial-irrevocable attempt. Without it the ladder must stop at
// backoff: "serial" on a NoSerialLock runtime excludes only other serial
// transactions, so forcing it would race every speculative one.
func TestWatchdogLadder(t *testing.T) {
	for _, tc := range []struct {
		name           string
		noSerialLock   bool
		wantSerializes uint64
	}{
		{"serial-lock", false, 1},
		{"no-serial-lock", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(Config{Algorithm: MLWT, CM: CMNone, NoSerialLock: tc.noSerialLock, WatchdogAborts: 1})
			th := rt.NewThread()
			v := NewTWord(0)
			attempts := 0
			mustRun(t, th, Props{Kind: Atomic}, func(tx *Tx) {
				attempts++
				rt.watchdogScan(time.Now())
				v.Store(tx, v.Load(tx)+1)
				if attempts <= 6 && !tx.Serial() {
					tx.Abort()
				}
			})
			s := rt.Stats()
			if s.WatchdogBackoffs != 1 {
				t.Errorf("WatchdogBackoffs = %d, want 1", s.WatchdogBackoffs)
			}
			if s.WatchdogSerializes != tc.wantSerializes || s.SerialCommits != tc.wantSerializes {
				t.Errorf("WatchdogSerializes = %d, SerialCommits = %d, want both %d",
					s.WatchdogSerializes, s.SerialCommits, tc.wantSerializes)
			}
			if got := v.LoadDirect(); got != 1 {
				t.Errorf("value = %d after %d attempts, want 1", got, attempts)
			}
			if e := th.escalate.Load(); e != escalateNone {
				t.Errorf("escalation %d survived the commit", e)
			}
		})
	}
}
