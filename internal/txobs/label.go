// Package txobs is the transaction observability layer: a label registry for
// naming transactional data structures, per-kind counters of the runtime's
// begin/abort/serialize/commit events, a conflict heat map aggregated by
// ownership record, by label and by who-aborted-whom edge, and log-bucketed
// latency histograms per STM phase and per server command.
//
// The paper's authors report that "manually diagnosing the causes of aborts
// and serialization was challenging", and extended the GCC TM library with
// custom profiling (§6). This package is that extension made first-class: the
// runtime records structured events instead of ad-hoc counters, and the
// server exposes them live (`stats tm`, `stats conflicts`, `stats latency`,
// and an HTTP debug endpoint).
//
// The package deliberately imports nothing from the rest of the repository so
// the STM runtime, engine, and server can all depend on it.
package txobs

import (
	"fmt"
	"sync"
)

// Label identifies a named class of transactional locations ("hash_bucket",
// "lru_head", "slab_class_3", ...). The zero Label means unlabeled. Labels
// are registered globally and encoded by the STM into location ids, so an
// aborting transaction can attribute the conflicting access to a named
// structure without any lookup on the hot path.
type Label uint16

// NoLabel is the zero label: a location that was never tagged.
const NoLabel Label = 0

// MaxLabels bounds the registry (and sizes the observer's per-label
// aggregation arrays). Registration past the limit returns NoLabel rather
// than growing without bound.
const MaxLabels = 1024

var labelReg = struct {
	sync.RWMutex
	byName map[string]Label
	names  []string
}{
	byName: make(map[string]Label),
	names:  []string{"(unlabeled)"},
}

// RegisterLabel interns name and returns its Label. Registering the same name
// twice returns the same Label; registering more than MaxLabels distinct
// names returns NoLabel for the overflow.
func RegisterLabel(name string) Label {
	labelReg.RLock()
	l, ok := labelReg.byName[name]
	labelReg.RUnlock()
	if ok {
		return l
	}
	labelReg.Lock()
	defer labelReg.Unlock()
	if l, ok := labelReg.byName[name]; ok {
		return l
	}
	if len(labelReg.names) >= MaxLabels {
		return NoLabel
	}
	l = Label(len(labelReg.names))
	labelReg.names = append(labelReg.names, name)
	labelReg.byName[name] = l
	return l
}

// RegisterLabelf is RegisterLabel with Sprintf formatting (slab classes etc.).
func RegisterLabelf(format string, args ...any) Label {
	return RegisterLabel(fmt.Sprintf(format, args...))
}

// String returns the registered name, or "(unlabeled)" for NoLabel.
func (l Label) String() string {
	labelReg.RLock()
	defer labelReg.RUnlock()
	if int(l) < len(labelReg.names) {
		return labelReg.names[l]
	}
	return fmt.Sprintf("label(%d)", uint16(l))
}

// NumLabels returns the number of registered labels (including NoLabel).
func NumLabels() int {
	labelReg.RLock()
	defer labelReg.RUnlock()
	return len(labelReg.names)
}
