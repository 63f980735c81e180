package tmlib

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stm"
)

// run executes fn inside an atomic transaction on a fresh runtime.
func run(t *testing.T, fn func(tx *stm.Tx)) {
	t.Helper()
	rt := stm.New(stm.Config{})
	th := rt.NewThread()
	if err := th.Run(stm.Props{Kind: stm.Atomic}, fn); err != nil {
		t.Fatalf("tx: %v", err)
	}
}

func tb(s string) *stm.TBytes { return stm.NewTBytesFrom([]byte(s)) }

func TestMemcmp(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"abc", "abc", 0},
		{"abc", "abd", -1},
		{"abd", "abc", 1},
		{"", "", 0},
		// A difference in the second stripe: MemcmpLocal's first stripe
		// compares equal and the loop must go on to the next one.
		{strings.Repeat("k", 70) + "a", strings.Repeat("k", 70) + "b", -1},
		{strings.Repeat("k", 70) + "b", strings.Repeat("k", 70) + "a", 1},
	}
	for _, c := range cases {
		run(t, func(tx *stm.Tx) {
			if got := MemcmpLocal(tx, tb(c.a), 0, []byte(c.b)); got != c.want {
				t.Errorf("MemcmpLocal(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
			}
			if got := MemcmpDirect(tb(c.a), 0, []byte(c.b)); got != c.want {
				t.Errorf("MemcmpDirect(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
			}
		})
	}
}

func TestMemcmpOffsets(t *testing.T) {
	// "hello" at offset 60 straddles the first stripe boundary, and at 2 it
	// starts mid-word.
	shared := tb("xxhello" + strings.Repeat(".", 53) + "hello")
	run(t, func(tx *stm.Tx) {
		for _, c := range []struct {
			off   int
			local string
			want  int
		}{
			{2, "hello", 0},
			{60, "hello", 0},
			{60, "help!", -1},
			{2, "hella", 1},
		} {
			if got := MemcmpLocal(tx, shared, c.off, []byte(c.local)); got != c.want {
				t.Errorf("MemcmpLocal(off %d, %q) = %d, want %d", c.off, c.local, got, c.want)
			}
			if got := MemcmpDirect(shared, c.off, []byte(c.local)); got != c.want {
				t.Errorf("MemcmpDirect(off %d, %q) = %d, want %d", c.off, c.local, got, c.want)
			}
		}
	})
}

func TestMemcpyVariants(t *testing.T) {
	run(t, func(tx *stm.Tx) {
		src := tb("0123456789")
		dst := tb("aaaaaaaaaa")
		MemcpyFromLocal(tx, dst, 2, src.Bytes()[4:7])
		if got := string(dst.Bytes()); got != "aa456aaaaa" {
			t.Errorf("unaligned MemcpyFromLocal result %q", got)
		}
		MemcpyFromLocal(tx, dst, 0, []byte("ZZ"))
		if got := string(dst.Bytes()); got != "ZZ456aaaaa" {
			t.Errorf("MemcpyFromLocal result %q", got)
		}
		out := make([]byte, 4)
		MemcpyToLocal(tx, out, dst, 1, 4)
		if string(out) != "Z456" {
			t.Errorf("MemcpyToLocal got %q", out)
		}
	})
}

func TestMarshalInOut(t *testing.T) {
	run(t, func(tx *stm.Tx) {
		s := tb("shared-data!")
		var priv [4]byte
		MarshalInto(tx, priv[:], s, 7)
		if string(priv[:]) != "data" {
			t.Fatalf("MarshalInto = %q", priv)
		}
		MarshalOut(tx, s, 0, []byte("SHARED"))
		if got := string(s.Bytes()); got != "SHARED-data!" {
			t.Errorf("MarshalOut result %q", got)
		}
	})
}

func TestPureParsersMatchStrconv(t *testing.T) {
	g := func(v uint64) bool {
		s := strconv.FormatUint(v, 10)
		got, n := PureStrtoull([]byte("  " + s + "xyz"))
		return got == v && n == len(s)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestPureStrtoullEdgeCases(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
		n    int
	}{
		{"", 0, 0},
		{"abc", 0, 0},
		{"   ", 0, 0},
		{"-42", 0, 0}, // no sign: incr/decr values are unsigned
		{"7 ", 7, 1},
		{"  19db", 19, 2},
		{"\t\r\n5", 5, 1},
	}
	for _, c := range cases {
		v, n := PureStrtoull([]byte(c.in))
		if v != c.want || n != c.n {
			t.Errorf("PureStrtoull(%q) = (%d,%d), want (%d,%d)", c.in, v, n, c.want, c.n)
		}
	}
}

func TestIsspace(t *testing.T) {
	for c, want := range map[byte]bool{' ': true, '\t': true, '\r': true, '\n': true, 'a': false, '0': false} {
		if got := PureIsspace(c); got != want {
			t.Errorf("PureIsspace(%q) = %v", c, got)
		}
	}
}

// TestMarshalingAtomicityCaveat demonstrates (as a regression-pinned behavior,
// not a bug) the paper's warning that two marshaled calls in one transaction
// can observe non-atomic external state: the pure function's result depends on
// ambient state the TM cannot version.
func TestMarshalingAtomicityCaveat(t *testing.T) {
	locale := "C"
	pureFormat := func(v float64) string {
		if locale == "C" {
			return fmt.Sprintf("%.2f", v)
		}
		return strings.ReplaceAll(fmt.Sprintf("%.2f", v), ".", ",")
	}
	run(t, func(tx *stm.Tx) {
		first := pureFormat(1.5)
		locale = "de_DE" // "administrator changes the locale" mid-transaction
		second := pureFormat(1.5)
		if first == second {
			t.Error("expected the two marshaled calls to disagree — the paper's pathological case")
		}
	})
}
