package access

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/sem"
	"repro/internal/stm"
	"repro/internal/txobs"
)

func newPtr(v *int) *stm.TPtr[int] {
	p := &stm.TPtr[int]{}
	p.Init(stm.ReserveIDs(1), txobs.NoLabel, v)
	return p
}

func runTx(t *testing.T, rt *stm.Runtime, kind stm.Kind, p Profile, fn func(TxCtx)) error {
	t.Helper()
	th := rt.NewThread()
	return th.Run(stm.Props{Kind: kind}, func(tx *stm.Tx) {
		fn(TxCtx{T: tx, Profile: p})
	})
}

func TestDirectCtxBasics(t *testing.T) {
	c := DirectCtx{}
	w := stm.NewTWord(5)
	if c.Word(w) != 5 {
		t.Error("Word")
	}
	c.SetWord(w, 6)
	if c.AddWord(w, 2) != 8 {
		t.Error("AddWord")
	}
	y := 1
	a := newPtr(nil)
	SetPtr(c, a, &y)
	if Ptr(c, a) != &y {
		t.Error("Ptr")
	}
	if c.InTx() || c.Tx() != nil {
		t.Error("DirectCtx claims to be transactional")
	}
	if c.Volatile(w) != 8 {
		t.Error("Volatile")
	}
	c.SetVolatile(w, 1)
	if c.AddVolatile(w, 1) != 2 {
		t.Error("AddVolatile")
	}
}

func TestDirectCtxLibc(t *testing.T) {
	for _, naive := range []bool{false, true} {
		c := DirectCtx{NaiveLibc: naive}
		s := stm.NewTBytesFrom([]byte("hello world"))
		if c.Memcmp(s, 0, []byte("hello world")) != 0 {
			t.Errorf("naive=%v: Memcmp equal failed", naive)
		}
		if c.Memcmp(s, 6, []byte("world")) != 0 {
			t.Errorf("naive=%v: Memcmp offset failed", naive)
		}
		if c.Memcmp(s, 0, []byte("hellp")) >= 0 {
			t.Errorf("naive=%v: Memcmp ordering failed", naive)
		}
		out := make([]byte, 5)
		c.MemcpyOut(out, s, 6, 5)
		if string(out) != "world" {
			t.Errorf("naive=%v: MemcpyOut = %q", naive, out)
		}
	}

	c := DirectCtx{}
	dst := stm.NewTBytes(16)
	c.MemcpyIn(dst, 2, []byte("abc"))
	if got := dst.Bytes()[2:5]; !bytes.Equal(got, []byte("abc")) {
		t.Errorf("MemcpyIn = %q", got)
	}
	v, n := c.Strtoull(stm.NewTBytesFrom([]byte("321x")), 0, 4)
	if v != 321 || n != 3 {
		t.Errorf("Strtoull = (%d,%d)", v, n)
	}
	buf := stm.NewTBytes(64)
	wrote := c.FormatSuffix(buf, 0, 7, 100)
	if got := string(buf.Bytes()[:wrote]); got != " 7 100\r\n" {
		t.Errorf("FormatSuffix = %q", got)
	}
	wrote = c.FormatUint(buf, 0, 42)
	if got := string(buf.Bytes()[:wrote]); got != "42" {
		t.Errorf("FormatUint = %q", got)
	}
}

func TestDirectCtxIO(t *testing.T) {
	c := DirectCtx{}
	var logged string
	c.Fprintf(func(s string) { logged = s }, "event")
	if logged != "event" {
		t.Error("Fprintf did not log")
	}
	c.Fprintf(nil, "dropped") // must not panic
	s := sem.New(0)
	c.SemPost(s)
	if !s.TryWait() {
		t.Error("SemPost lost")
	}
}

func TestTxCtxInstrumentedAccess(t *testing.T) {
	rt := stm.New(stm.Config{})
	w := stm.NewTWord(1)
	ten, twenty := 10, 20
	a := newPtr(&ten)
	err := runTx(t, rt, stm.Atomic, Profile{TxVolatiles: true, SafeLibc: true, OnCommitIO: true}, func(c TxCtx) {
		if !c.InTx() || c.Tx() == nil {
			t.Error("TxCtx not transactional")
		}
		c.SetWord(w, c.Word(w)+1)
		if c.AddWord(w, 3) != 5 {
			t.Error("AddWord")
		}
		if *Ptr(c, a) == 10 {
			SetPtr(c, a, &twenty)
		}
		if c.Volatile(w) != 5 {
			t.Error("Volatile (transactional)")
		}
		c.SetVolatile(w, 7)
		if c.AddVolatile(w, 1) != 8 {
			t.Error("AddVolatile (transactional)")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.LoadDirect() != 8 || a.LoadDirect() != &twenty {
		t.Errorf("after commit: w=%d a=%v", w.LoadDirect(), a.LoadDirect())
	}
}

func TestTxCtxVolatileUnsafePreMax(t *testing.T) {
	rt := stm.New(stm.Config{})
	w := stm.NewTWord(0)
	// In a relaxed transaction, the volatile access triggers the in-flight
	// switch, then proceeds directly.
	err := runTx(t, rt, stm.Relaxed, Profile{}, func(c TxCtx) {
		if c.AddVolatile(w, 1) != 1 {
			t.Error("AddVolatile value")
		}
		if !c.Tx().Serial() {
			t.Error("not serialized by volatile access")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Stats().InFlightSwitch; got != 1 {
		t.Errorf("InFlightSwitch = %d", got)
	}
	// In an atomic transaction it is the compile-error analogue.
	defer func() {
		r := recover()
		if err, ok := r.(error); !ok || !errors.Is(err, stm.ErrUnsafeInAtomic) {
			t.Fatalf("panic = %v", r)
		}
	}()
	_ = runTx(t, rt, stm.Atomic, Profile{}, func(c TxCtx) { c.Volatile(w) })
	t.Fatal("no panic")
}

func TestTxCtxLibcGate(t *testing.T) {
	rt := stm.New(stm.Config{})
	s := stm.NewTBytesFrom([]byte("payload!"))
	// Pre-Lib: memcmp serializes a relaxed transaction.
	err := runTx(t, rt, stm.Relaxed, Profile{TxVolatiles: true}, func(c TxCtx) {
		if c.Memcmp(s, 0, []byte("payload!")) != 0 {
			t.Error("Memcmp result")
		}
		if !c.Tx().Serial() {
			t.Error("memcmp did not serialize pre-Lib")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Post-Lib: the tm_* version runs inside an atomic transaction.
	err = runTx(t, rt, stm.Atomic, Profile{TxVolatiles: true, SafeLibc: true}, func(c TxCtx) {
		if c.Memcmp(s, 0, []byte("payload!")) != 0 {
			t.Error("tm_memcmp result")
		}
		dst := make([]byte, 4)
		c.MemcpyOut(dst, s, 0, 4)
		if string(dst) != "payl" {
			t.Errorf("MemcpyOut = %q", dst)
		}
		if c.Tx().Serial() {
			t.Error("safe library call serialized")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTxCtxLibcWriters(t *testing.T) {
	rt := stm.New(stm.Config{})
	prof := Profile{TxVolatiles: true, SafeLibc: true, OnCommitIO: true}
	dst := stm.NewTBytes(32)
	err := runTx(t, rt, stm.Atomic, prof, func(c TxCtx) {
		c.MemcpyIn(dst, 0, []byte("XY"))
		c.MemcpyIn(dst, 2, []byte("abcd"))
		n := c.FormatUint(dst, 6, 99)
		if n != 2 {
			t.Errorf("FormatUint n = %d", n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(dst.Bytes()[:8]); got != "XYabcd99" {
		t.Errorf("dst = %q", got)
	}
	v, n := uint64(0), 0
	err = runTx(t, rt, stm.Atomic, prof, func(c TxCtx) {
		v, n = c.Strtoull(stm.NewTBytesFrom([]byte("777")), 0, 3)
	})
	if err != nil || v != 777 || n != 3 {
		t.Errorf("Strtoull = (%d,%d,%v)", v, n, err)
	}
}

func TestTxCtxIODeferred(t *testing.T) {
	rt := stm.New(stm.Config{})
	s := sem.New(0)
	var logged []string

	// onCommit stage: both the log write and the post happen only at commit.
	err := runTx(t, rt, stm.Atomic, Profile{TxVolatiles: true, SafeLibc: true, OnCommitIO: true}, func(c TxCtx) {
		c.Fprintf(func(m string) { logged = append(logged, m) }, "deferred")
		c.SemPost(s)
		if len(logged) != 0 || s.TryWait() {
			t.Error("I/O happened inside the transaction despite OnCommitIO")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(logged) != 1 || logged[0] != "deferred" {
		t.Errorf("logged = %v", logged)
	}
	if !s.TryWait() {
		t.Error("post not delivered at commit")
	}

	// Pre-onCommit: the post serializes the relaxed transaction and happens
	// immediately.
	err = runTx(t, rt, stm.Relaxed, Profile{TxVolatiles: true, SafeLibc: true}, func(c TxCtx) {
		c.SemPost(s)
		if !c.Tx().Serial() {
			t.Error("sem_post did not serialize")
		}
		if !s.TryWait() {
			t.Error("post not visible inside serialized transaction")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTxCtxIONotRunOnCancel(t *testing.T) {
	rt := stm.New(stm.Config{})
	s := sem.New(0)
	err := runTx(t, rt, stm.Atomic, Profile{TxVolatiles: true, SafeLibc: true, OnCommitIO: true}, func(c TxCtx) {
		c.SemPost(s)
		c.Tx().Cancel()
	})
	if !errors.Is(err, stm.ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
	if s.TryWait() {
		t.Error("deferred post delivered despite cancel")
	}
}
