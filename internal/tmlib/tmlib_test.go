package tmlib

import (
	"bytes"
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

// cstr builds a NUL-terminated transactional string with extra capacity.
func cstr(s string, cap_ int) *stm.TBytes {
	if cap_ < len(s)+1 {
		cap_ = len(s) + 1
	}
	buf := make([]byte, cap_)
	copy(buf, s)
	return stm.NewTBytesFrom(buf)
}

func TestMemcmp(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"abc", "abc", 0},
		{"abc", "abd", -1},
		{"abd", "abc", 1},
		{"", "", 0},
	}
	for _, c := range cases {
		run(t, func(tx *stm.Tx) {
			if got := Memcmp(tx, tb(c.a), 0, tb(c.b), 0, len(c.a)); got != c.want {
				t.Errorf("Memcmp(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
			}
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
	run(t, func(tx *stm.Tx) {
		a := tb("xxhello")
		b := tb("hello")
		if got := Memcmp(tx, a, 2, b, 0, 5); got != 0 {
			t.Errorf("offset Memcmp = %d, want 0", got)
		}
		if got := MemcmpLocal(tx, a, 2, []byte("hello")); got != 0 {
			t.Errorf("offset MemcmpLocal = %d, want 0", got)
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

func TestStrlen(t *testing.T) {
	run(t, func(tx *stm.Tx) {
		if got := Strlen(tx, cstr("hello", 16)); got != 5 {
			t.Errorf("Strlen = %d, want 5", got)
		}
		if got := Strlen(tx, tb("nonul")); got != 5 {
			t.Errorf("Strlen without NUL = %d, want 5", got)
		}
		if got := StrlenDirect(cstr("hello", 16)); got != 5 {
			t.Errorf("StrlenDirect = %d, want 5", got)
		}
	})
}

func TestStrncmp(t *testing.T) {
	run(t, func(tx *stm.Tx) {
		cases := []struct {
			a, b string
			n    int
			want int
		}{
			{"get", "get", 3, 0},
			{"get", "gets", 3, 0},
			{"get", "gets", 4, -1},
			{"set", "get", 3, 1},
			{"a", "ab", 5, -1},
		}
		for _, c := range cases {
			if got := Strncmp(tx, cstr(c.a, 8), cstr(c.b, 8), c.n); got != c.want {
				t.Errorf("Strncmp(%q,%q,%d) = %d, want %d", c.a, c.b, c.n, got, c.want)
			}
		}
	})
}

func TestStrncpyPads(t *testing.T) {
	run(t, func(tx *stm.Tx) {
		dst := tb("XXXXXXXX")
		Strncpy(tx, dst, cstr("ab", 8), 6)
		want := []byte{'a', 'b', 0, 0, 0, 0, 'X', 'X'}
		if !bytes.Equal(dst.Bytes(), want) {
			t.Errorf("Strncpy = %v, want %v", dst.Bytes(), want)
		}
	})
}

func TestStrchr(t *testing.T) {
	run(t, func(tx *stm.Tx) {
		s := cstr("hello world", 16)
		if got := Strchr(tx, s, 'o'); got != 4 {
			t.Errorf("Strchr('o') = %d, want 4", got)
		}
		if got := Strchr(tx, s, 'z'); got != -1 {
			t.Errorf("Strchr('z') = %d, want -1", got)
		}
		if got := Strchr(tx, s, 0); got != 11 {
			t.Errorf("Strchr(0) = %d, want 11", got)
		}
	})
}

func TestRealloc(t *testing.T) {
	run(t, func(tx *stm.Tx) {
		old := tb("hello")
		grown := Realloc(tx, old, 10)
		if grown.Len() != 10 {
			t.Fatalf("Len = %d", grown.Len())
		}
		if got := string(grown.Bytes()[:5]); got != "hello" {
			t.Errorf("content %q", got)
		}
		shrunk := Realloc(tx, old, 3)
		if got := string(shrunk.Bytes()); got != "hel" {
			t.Errorf("shrunk %q", got)
		}
	})
}

func TestMarshalInOut(t *testing.T) {
	run(t, func(tx *stm.Tx) {
		s := tb("shared-data!")
		priv := MarshalIn(tx, s, 7, 4)
		if string(priv) != "data" {
			t.Fatalf("MarshalIn = %q", priv)
		}
		MarshalOut(tx, s, 0, []byte("SHARED"))
		if got := string(s.Bytes()); got != "SHARED-data!" {
			t.Errorf("MarshalOut result %q", got)
		}
	})
}

func TestPureParsersMatchStrconv(t *testing.T) {
	f := func(v int64) bool {
		s := strconv.FormatInt(v, 10)
		got, n := PureStrtol([]byte(s + "xyz"))
		return got == v && n == len(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(v uint64) bool {
		s := strconv.FormatUint(v, 10)
		got, n := PureStrtoull([]byte("  " + s))
		return got == v && n == len(s)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestPureStrtolEdgeCases(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		n    int
	}{
		{"", 0, 0},
		{"abc", 0, 0},
		{"-", 0, 0},
		{"-42", -42, 3},
		{"+7 ", 7, 2},
		{"  19db", 19, 4},
	}
	for _, c := range cases {
		v, n := PureStrtol([]byte(c.in))
		if v != c.want || n != c.n {
			t.Errorf("PureStrtol(%q) = (%d,%d), want (%d,%d)", c.in, v, n, c.want, c.n)
		}
	}
}

func TestIsspace(t *testing.T) {
	for c, want := range map[byte]bool{' ': true, '\t': true, '\r': true, '\n': true, 'a': false, '0': false} {
		if got := PureIsspace(c); got != want {
			t.Errorf("PureIsspace(%q) = %v", c, got)
		}
	}
	run(t, func(tx *stm.Tx) {
		s := tb("a b")
		if Isspace(tx, s, 0) || !Isspace(tx, s, 1) {
			t.Error("transactional Isspace misclassified")
		}
	})
}

func TestAtoiStrtoullTransactional(t *testing.T) {
	run(t, func(tx *stm.Tx) {
		if got := Atoi(tx, cstr("-123", 8)); got != -123 {
			t.Errorf("Atoi = %d", got)
		}
		v, n := Strtoull(tx, cstr("987 rest", 16))
		if v != 987 || n != 3 {
			t.Errorf("Strtoull = (%d,%d)", v, n)
		}
	})
}

func TestHtons(t *testing.T) {
	if got := Htons(0x1234); got != 0x3412 {
		t.Errorf("Htons = %#x", got)
	}
	if got := Htons(Htons(0xBEEF)); got != 0xBEEF {
		t.Error("Htons not an involution")
	}
}

func TestSnprintfClones(t *testing.T) {
	run(t, func(tx *stm.Tx) {
		dst := stm.NewTBytes(64)
		n := SnprintfStatUint(tx, dst, 0, []byte("curr_items"), 42)
		want := "STAT curr_items 42\r\n"
		if got := string(dst.Bytes()[:n]); got != want {
			t.Errorf("SnprintfStatUint = %q, want %q", got, want)
		}

		n = SnprintfValueHeader(tx, dst, 0, []byte("k1"), 7, 100)
		want = "VALUE k1 7 100\r\n"
		if got := string(dst.Bytes()[:n]); got != want {
			t.Errorf("SnprintfValueHeader = %q, want %q", got, want)
		}

		n = SnprintfUint(tx, dst, 3, 65535)
		if got := string(dst.Bytes()[3 : 3+n]); got != "65535" {
			t.Errorf("SnprintfUint = %q", got)
		}
	})
}

func TestSnprintfTruncates(t *testing.T) {
	run(t, func(tx *stm.Tx) {
		dst := stm.NewTBytes(8)
		n := SnprintfStatUint(tx, dst, 0, []byte("a_very_long_stat_name"), 1)
		if n != 8 {
			t.Errorf("truncated n = %d, want 8", n)
		}
		if got := string(dst.Bytes()); got != "STAT a_v" {
			t.Errorf("truncated content %q", got)
		}
	})
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
