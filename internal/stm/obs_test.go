package stm

import (
	"testing"
	"time"

	"repro/internal/txobs"
)

// TestObsConflictAttribution drives a deterministic conflict: thread A holds
// the orec of a labeled word inside a transaction while thread B reads it,
// aborting until the contention manager serializes B. The observer must
// attribute the aborts and the abort-serial event to the label, fill the heat
// map, and record the phase histograms.
func TestObsConflictAttribution(t *testing.T) {
	rt := New(Config{Algorithm: MLWT, CM: CMSerialize, SerializeAfter: 3})
	obs := rt.EnableTracing()
	lbl := txobs.RegisterLabel("obs_test_word")
	w := NewTWord(0).Label(lbl)

	thA, thB := rt.NewThread(), rt.NewThread()
	hold := make(chan struct{})
	held := make(chan struct{}, 1)
	aDone := make(chan error, 1)
	go func() {
		aDone <- thA.Run(Props{Site: "holder"}, func(tx *Tx) {
			w.Store(tx, 1) // acquires the orec (eager MLWT)
			select {
			case held <- struct{}{}:
			default:
			}
			<-hold
		})
	}()
	<-held

	bDone := make(chan error, 1)
	go func() {
		bDone <- thB.Run(Props{Site: "aborter"}, func(tx *Tx) { _ = w.Load(tx) })
	}()

	// B aborts against the held orec until it serializes; then it blocks on
	// the serial lock's write side (A holds the read side).
	deadline := time.Now().Add(5 * time.Second)
	for rt.Stats().AbortSerial == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for abort-serial escalation")
		}
		time.Sleep(time.Millisecond)
	}
	close(hold)
	if err := <-aDone; err != nil {
		t.Fatalf("holder: %v", err)
	}
	if err := <-bDone; err != nil {
		t.Fatalf("aborter: %v", err)
	}

	if n := obs.KindCount(txobs.KAbort); n < 3 {
		t.Fatalf("abort events = %d, want >= 3", n)
	}
	if n := obs.KindCount(txobs.KCommit); n != 2 {
		t.Fatalf("commit events = %d, want 2", n)
	}
	named, total := obs.SerialAttribution()
	if total == 0 || named != total {
		t.Fatalf("abort-serial attribution %d/%d, want all named", named, total)
	}

	r := obs.Report(10)
	if len(r.ConflictLabels) == 0 || r.ConflictLabels[0].Label != "obs_test_word" {
		t.Fatalf("conflict labels = %+v", r.ConflictLabels)
	}
	if len(r.HotOrecs) == 0 || r.HotOrecs[0].LastLabel != "obs_test_word" {
		t.Fatalf("hot orecs = %+v", r.HotOrecs)
	}
	wantOrec := rt.orecIndex(w.id)
	if int32(r.HotOrecs[0].Orec) != wantOrec {
		t.Fatalf("hot orec = %d, want %d", r.HotOrecs[0].Orec, wantOrec)
	}
	if _, ok := r.Phases["first_abort"]; !ok {
		t.Fatalf("missing first_abort phase: %+v", r.Phases)
	}
	if _, ok := r.Phases["serial_wait"]; !ok {
		t.Fatalf("missing serial_wait phase: %+v", r.Phases)
	}
	if s, ok := r.Phases["commit"]; !ok || s.Count < 2 {
		t.Fatalf("commit phase = %+v", r.Phases)
	}

	if len(r.AbortCauses) == 0 || r.AbortCauses[0].Cause != "conflict: location locked (read)" {
		t.Fatalf("abort causes = %+v", r.AbortCauses)
	}
	// Who aborted whom: every abort and the abort-serial escalation of the
	// reader ran into the orec the holder's write barrier had taken.
	want := txobs.ConflictEdge{Owner: "holder", Victim: "aborter", Label: "obs_test_word", Count: obs.KindCount(txobs.KAbort) + 1}
	if len(r.ConflictEdges) != 1 || r.ConflictEdges[0] != want {
		t.Fatalf("conflict edges = %+v, want [%+v]", r.ConflictEdges, want)
	}
}

// TestObsDisabled checks nothing is recorded without EnableTracing, and that
// DisableTracing stops recording while keeping collected data queryable.
func TestObsDisabled(t *testing.T) {
	rt := New(Config{Algorithm: MLWT})
	w := NewTWord(0)
	th := rt.NewThread()
	if err := th.Run(Props{}, func(tx *Tx) { w.Store(tx, 1) }); err != nil {
		t.Fatal(err)
	}
	if rt.TracingObserver() != nil {
		t.Fatal("observer exists without EnableTracing")
	}

	o := rt.EnableTracing()
	if err := th.Run(Props{}, func(tx *Tx) { w.Store(tx, 2) }); err != nil {
		t.Fatal(err)
	}
	if n := o.KindCount(txobs.KCommit); n != 1 {
		t.Fatalf("commit events with tracing on = %d, want 1", n)
	}

	rt.DisableTracing()
	if err := th.Run(Props{}, func(tx *Tx) { w.Store(tx, 3) }); err != nil {
		t.Fatal(err)
	}
	if n := o.KindCount(txobs.KCommit); n != 1 {
		t.Fatalf("commit events after DisableTracing = %d, want still 1", n)
	}
	if rt.TracingObserver() != o {
		t.Fatal("observer not retained across DisableTracing")
	}
}

// TestLabelEncoding checks labels ride in the id high bits without disturbing
// the allocation counter, including across a TBytes word range.
func TestLabelEncoding(t *testing.T) {
	l := txobs.RegisterLabel("obs_test_enc")
	w := NewTWord(7).Label(l)
	if labelOf(w.id) != l {
		t.Fatalf("label = %v", labelOf(w.id))
	}
	if w.LoadDirect() != 7 {
		t.Fatalf("value disturbed: %d", w.LoadDirect())
	}
	b := NewTBytes(64).Label(l)
	for i := range b.words {
		if labelOf(b.baseID+uint64(i)) != l {
			t.Fatalf("word %d lost label", i)
		}
	}
	var p TPtr[int]
	p.Init(ReserveIDs(1), l, nil)
	if p.LabelOf() != l {
		t.Fatalf("TPtr label = %v", p.LabelOf())
	}
	if NewTWord(0).id>>labelShift != 0 {
		t.Fatal("unlabeled word has label bits set")
	}
}
