package torture

import (
	"bytes"
	"testing"
)

// TestChaosValueCertifiesItself: the checker accepts a key's value of any
// length, with any number of appends, and nothing else — not another key's
// value, not a truncation, not two values of the same key spliced, which is
// what a reader copying out of a chunk being refilled would assemble.
func TestChaosValueCertifiesItself(t *testing.T) {
	a, b := []byte("churn-17"), []byte("churn-71")
	for _, n := range []int{0, 5, 120, 6000} {
		v := chaosValue(a, n)
		if len(v) != n+chaosTrailer {
			t.Fatalf("chaosValue(%d) is %d bytes", n, len(v))
		}
		if err := checkChaosValue(a, v); err != nil {
			t.Errorf("n=%d: own value rejected: %v", n, err)
		}
		if err := checkChaosValue(a, append(bytes.Clone(v), "+t+t+t"...)); err != nil {
			t.Errorf("n=%d: value with three appends rejected: %v", n, err)
		}
		if checkChaosValue(b, v) == nil {
			t.Errorf("n=%d: accepted as another key's value", n)
		}
		if n > 0 && checkChaosValue(a, v[:len(v)-1]) == nil {
			t.Errorf("n=%d: accepted truncated", n)
		}
	}
	long, short := chaosValue(a, 300), chaosValue(a, 100)
	spliced := append(bytes.Clone(short), long[len(short):]...) // short's bytes over the head of long
	if checkChaosValue(a, spliced) == nil {
		t.Error("accepted two values of one key spliced together")
	}
	mixed := append(bytes.Clone(chaosValue(b, 300)[:150]), long[150:]...)
	if checkChaosValue(a, mixed) == nil {
		t.Error("accepted a value whose head is another key's")
	}
	if checkChaosValue(a, []byte("short")) == nil {
		t.Error("accepted a value shorter than a trailer")
	}
}
