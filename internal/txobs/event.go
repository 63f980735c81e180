package txobs

// Kind classifies an event.
type Kind uint8

const (
	// KBegin is a transaction attempt beginning (speculative or serial).
	KBegin Kind = iota
	// KCommit is a successful commit of a source-level transaction.
	KCommit
	// KAbort is an aborted speculative attempt.
	KAbort
	// KInFlightSwitch is a relaxed transaction hitting an unsafe operation and
	// restarting serial-irrevocable (§3's dominant serialization cause).
	KInFlightSwitch
	// KStartSerial is a transaction that began in serial mode.
	KStartSerial
	// KAbortSerial is a transaction serialized for progress after the
	// contention manager's consecutive-abort limit.
	KAbortSerial
	// KWatchdogBackoff and KWatchdogSerialize are starvation-watchdog
	// escalations.
	KWatchdogBackoff
	KWatchdogSerialize
	// KRetryWait is a condition-synchronization retry blocking on its read set.
	KRetryWait
	// KROFastCommit is a read-only transaction committing on the fast path:
	// read-set revalidation against the global timestamp, zero orec
	// acquisitions and zero serial-lock traffic.
	KROFastCommit
	// KROUpgrade is a read-only attempt reaching a write barrier and
	// restarting cleanly on the normal (writer-capable) path.
	KROUpgrade

	kindN
)

var kindNames = [kindN]string{
	"begin", "commit", "abort", "inflight_switch", "start_serial",
	"abort_serial", "watchdog_backoff", "watchdog_serialize",
	"retry_wait", "ro_fast_commit", "ro_upgrade",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// serializes reports whether the event kind is a serialization event (the
// category the paper's Tables 1-4 break down).
func (k Kind) serializes() bool {
	switch k {
	case KInFlightSwitch, KStartSerial, KAbortSerial,
		KWatchdogBackoff, KWatchdogSerialize:
		return true
	}
	return false
}

// Event is one transaction event. The runtime builds it on the stack and
// hands it to Observer.Record, which folds it into the aggregates and keeps
// nothing of it.
type Event struct {
	Kind  Kind
	Orec  int32  // conflicting orec index, -1 = none/unknown
	Shard int32  // TM domain (shard) the event came from; 0 when unsharded
	Label Label  // label of the conflicting location (NoLabel = unnamed)
	Cause string // serialization/abort cause, "" for begin/commit
	Site  string // source-level transaction site (Props.Site)
	Owner string // site of the last traced writer of the conflicting orec, "" = unknown
}
