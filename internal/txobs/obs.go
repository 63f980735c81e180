package txobs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Options parameterizes an Observer.
type Options struct {
	// Orecs sizes the per-orec conflict heat map (the runtime's orec-table
	// size). 0 disables orec-level aggregation (labels still work). For a
	// sharded engine this is the sum of every shard's orec-table size: each
	// shard's runtime records events with a disjoint orec base offset, so one
	// observer covers all domains without index collisions.
	Orecs int
	// Shards is the number of TM domains feeding this observer. >1 enables
	// the per-shard conflict-label heat map and the cross-shard consistency
	// check on the orec heat map. 0 and 1 mean a single (unsharded) domain.
	Shards int
}

// heatCell is one orec's aggregate: abort count plus the label of the last
// conflicting location that hashed there (label+1; 0 = none seen), plus the
// owning shard (shard+1; 0 = none seen). Since sharded runtimes record with
// disjoint orec bases, a cell seeing two different shards is a bug — counted
// in crossShard, asserted zero by the bench harness.
type heatCell struct {
	n     atomic.Uint64
	last  atomic.Uint32
	shard atomic.Int32
}

// shardCells is one shard's conflict-by-label heat map.
type shardCells struct {
	aborts [MaxLabels]atomic.Uint64
}

// edgeKey is one who-aborted-whom edge: the site that last wrote the
// conflicting orec, the site that aborted on it, and the location's label.
type edgeKey struct {
	owner, victim string
	label         Label
}

// Observer owns the aggregation state of the observability layer: per-kind
// event counters, the conflict heat map, serialization/abort cause maps, the
// who-aborted-whom edges, and the phase and command latency histograms. One
// Observer serves one cache (runtime); it persists across Enable/Disable so
// collected data survives turning tracing off.
type Observer struct {
	enabled atomic.Bool
	// events counts every event recorded; unlike the aggregates it is not
	// cleared by Reset.
	events atomic.Uint64

	kinds [kindN]atomic.Uint64

	orecHeat      []heatCell
	labelAborts   [MaxLabels]atomic.Uint64
	serialByLabel [MaxLabels]atomic.Uint64

	// Shard dimension (sharded engines): per-shard conflict labels and the
	// count of orec heat cells that saw events from more than one shard.
	shardHeat  []shardCells
	crossShard atomic.Uint64

	// causeMu guards the cause maps and the edge map, all written on abort
	// and serialization paths only.
	causeMu      sync.Mutex
	serialCauses map[string]uint64
	abortCauses  map[string]uint64
	edges        map[edgeKey]uint64

	phases [phaseN]Histogram
	cmds   sync.Map // command name -> *Histogram
}

// New creates a disabled Observer.
func New(opts Options) *Observer {
	o := &Observer{
		serialCauses: make(map[string]uint64),
		abortCauses:  make(map[string]uint64),
		edges:        make(map[edgeKey]uint64),
	}
	if opts.Orecs > 0 {
		o.orecHeat = make([]heatCell, opts.Orecs)
	}
	if opts.Shards > 1 {
		o.shardHeat = make([]shardCells, opts.Shards)
	}
	return o
}

// Enable turns event recording on.
func (o *Observer) Enable() { o.enabled.Store(true) }

// Disable turns event recording off; collected data is retained.
func (o *Observer) Disable() { o.enabled.Store(false) }

// Enabled reports whether events are being recorded.
func (o *Observer) Enabled() bool { return o.enabled.Load() }

// Record folds one event into the aggregates: kind counters, cause maps, the
// conflict heat map and the who-aborted-whom edges. It keeps nothing of ev,
// so an event the runtime builds on its stack stays there. No-op while
// disabled: the cost is one atomic load.
func (o *Observer) Record(ev *Event) {
	if !o.enabled.Load() {
		return
	}
	o.events.Add(1)
	o.kinds[ev.Kind].Add(1)
	switch {
	case ev.Kind == KAbort:
		if ev.Orec >= 0 && int(ev.Orec) < len(o.orecHeat) {
			c := &o.orecHeat[ev.Orec]
			c.n.Add(1)
			c.last.Store(uint32(ev.Label) + 1)
			owner := ev.Shard + 1
			if prev := c.shard.Load(); prev == 0 {
				c.shard.CompareAndSwap(0, owner)
			} else if prev != owner {
				o.crossShard.Add(1)
			}
		}
		if int(ev.Label) < MaxLabels {
			o.labelAborts[ev.Label].Add(1)
		}
		if int(ev.Shard) < len(o.shardHeat) && int(ev.Label) < MaxLabels {
			o.shardHeat[ev.Shard].aborts[ev.Label].Add(1)
		}
		o.addConflict(o.abortCauses, ev)
	case ev.Kind == KAbortSerial:
		if int(ev.Label) < MaxLabels {
			o.serialByLabel[ev.Label].Add(1)
		}
		o.addConflict(o.serialCauses, ev)
	case ev.Kind.serializes():
		if ev.Cause != "" {
			o.causeMu.Lock()
			o.serialCauses[ev.Cause]++
			o.causeMu.Unlock()
		}
	}
}

// addConflict counts an abort or abort-serial event's cause in causes and its
// who-aborted-whom edge.
func (o *Observer) addConflict(causes map[string]uint64, ev *Event) {
	o.causeMu.Lock()
	if ev.Cause != "" {
		causes[ev.Cause]++
	}
	o.edges[edgeKey{owner: ev.Owner, victim: ev.Site, label: ev.Label}]++
	o.causeMu.Unlock()
}

// KindCount returns the number of events of kind k recorded.
func (o *Observer) KindCount(k Kind) uint64 { return o.kinds[k].Load() }

// CrossShardOrecConflicts returns how many conflict events landed on an orec
// heat cell already owned by a different shard. With disjoint per-shard orec
// bases this must stay zero; nonzero means two TM domains shared a
// synchronization word.
func (o *Observer) CrossShardOrecConflicts() uint64 { return o.crossShard.Load() }

// NumShards returns the shard count the observer was built for (1 when
// unsharded).
func (o *Observer) NumShards() int {
	if len(o.shardHeat) == 0 {
		return 1
	}
	return len(o.shardHeat)
}

// ObservePhase records one STM phase latency.
func (o *Observer) ObservePhase(p Phase, d time.Duration) {
	if !o.enabled.Load() {
		return
	}
	o.phases[p].Observe(d)
}

// ObserveCommand records one server-command latency.
func (o *Observer) ObserveCommand(cmd string, d time.Duration) {
	if !o.enabled.Load() {
		return
	}
	h, ok := o.cmds.Load(cmd)
	if !ok {
		h, _ = o.cmds.LoadOrStore(cmd, &Histogram{})
	}
	h.(*Histogram).Observe(d)
}

// SerialCauses returns the serialization causes, most frequent first (ties
// broken by cause name): the §6 attribution of every in-flight switch,
// start-serial and abort-serial to its unsafe operation or site.
func (o *Observer) SerialCauses() []CauseCount {
	o.causeMu.Lock()
	out := make([]CauseCount, 0, len(o.serialCauses))
	for c, n := range o.serialCauses {
		out = append(out, CauseCount{Cause: c, Count: n})
	}
	o.causeMu.Unlock()
	sortCauses(out)
	return out
}

// SerialAttribution returns how many abort-serial events carried a named
// label versus the total recorded — the attribution rate of the conflict
// heat map.
func (o *Observer) SerialAttribution() (named, total uint64) {
	for i := range o.serialByLabel {
		n := o.serialByLabel[i].Load()
		total += n
		if i != int(NoLabel) {
			named += n
		}
	}
	return named, total
}

// Reset zeroes every resettable aggregate: kind counters, heat map, cause
// maps, edges and histograms. The total event count keeps counting.
func (o *Observer) Reset() {
	for i := range o.kinds {
		o.kinds[i].Store(0)
	}
	for i := range o.orecHeat {
		o.orecHeat[i].n.Store(0)
		o.orecHeat[i].last.Store(0)
		o.orecHeat[i].shard.Store(0)
	}
	for i := range o.labelAborts {
		o.labelAborts[i].Store(0)
		o.serialByLabel[i].Store(0)
	}
	for s := range o.shardHeat {
		for i := range o.shardHeat[s].aborts {
			o.shardHeat[s].aborts[i].Store(0)
		}
	}
	o.crossShard.Store(0)
	o.causeMu.Lock()
	clear(o.serialCauses)
	clear(o.abortCauses)
	clear(o.edges)
	o.causeMu.Unlock()
	for i := range o.phases {
		o.phases[i].Reset()
	}
	o.cmds.Range(func(_, v any) bool {
		v.(*Histogram).Reset()
		return true
	})
}

// ---------------------------------------------------------------------------
// Reporting

// CauseCount is one attributed cause.
type CauseCount struct {
	Cause string
	Count uint64
}

// LabelCount is one label's aggregate.
type LabelCount struct {
	Label string
	Count uint64
}

// OrecCount is one hot ownership record.
type OrecCount struct {
	Orec      int
	Count     uint64
	LastLabel string
}

// ConflictEdge is one who-aborted-whom edge: Count aborts and abort-serial
// escalations of transactions at site Victim on a Label location whose orec
// a transaction at site Owner last wrote. "" is an unknown site: the owner
// wrote before tracing was on, or no orec conflicted.
type ConflictEdge struct {
	Owner  string
	Victim string
	Label  string
	Count  uint64
}

// Report is a point-in-time structured view of everything the observer has
// collected. The `stats tm`, `stats conflicts` and `stats latency` groups
// render it; every other surface reads those groups.
type Report struct {
	Enabled        bool
	Events         uint64
	Kinds          map[string]uint64
	SerialCauses   []CauseCount
	AbortCauses    []CauseCount
	ConflictLabels []LabelCount
	SerialLabels   []LabelCount
	HotOrecs       []OrecCount
	// Shards is the TM domain count; ShardConflicts is the conflict heat map
	// with the shard dimension ("s2/hash_bucket"), only populated when the
	// observer serves more than one shard. CrossShardOrecConflicts counts
	// conflicts whose orec heat cell was owned by another shard — zero by
	// construction when the domains are independent.
	Shards                  int
	ShardConflicts          []LabelCount
	CrossShardOrecConflicts uint64
	// ConflictEdges answers who aborted whom, heaviest edge first.
	ConflictEdges []ConflictEdge
	Phases        map[string]HistSnapshot
	Commands      map[string]HistSnapshot
}

func sortCauses(cs []CauseCount) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Count != cs[j].Count {
			return cs[i].Count > cs[j].Count
		}
		return cs[i].Cause < cs[j].Cause
	})
}

func sortLabels(ls []LabelCount) {
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].Count != ls[j].Count {
			return ls[i].Count > ls[j].Count
		}
		return ls[i].Label < ls[j].Label
	})
}

// Report builds a Report, keeping the topOrecs hottest ownership records
// (0 = all non-zero).
func (o *Observer) Report(topOrecs int) Report {
	r := Report{
		Enabled:  o.enabled.Load(),
		Events:   o.events.Load(),
		Kinds:    make(map[string]uint64, kindN),
		Phases:   make(map[string]HistSnapshot, phaseN),
		Commands: make(map[string]HistSnapshot),
	}
	for k := Kind(0); k < kindN; k++ {
		if n := o.kinds[k].Load(); n > 0 {
			r.Kinds[k.String()] = n
		}
	}
	r.SerialCauses = o.SerialCauses()
	o.causeMu.Lock()
	for c, n := range o.abortCauses {
		r.AbortCauses = append(r.AbortCauses, CauseCount{Cause: c, Count: n})
	}
	for k, n := range o.edges {
		r.ConflictEdges = append(r.ConflictEdges, ConflictEdge{
			Owner: k.owner, Victim: k.victim, Label: k.label.String(), Count: n,
		})
	}
	o.causeMu.Unlock()
	sortCauses(r.AbortCauses)
	sort.Slice(r.ConflictEdges, func(i, j int) bool {
		a, b := r.ConflictEdges[i], r.ConflictEdges[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.Owner != b.Owner {
			return a.Owner < b.Owner
		}
		if a.Victim != b.Victim {
			return a.Victim < b.Victim
		}
		return a.Label < b.Label
	})
	for i := 0; i < NumLabels(); i++ {
		if n := o.labelAborts[i].Load(); n > 0 {
			r.ConflictLabels = append(r.ConflictLabels, LabelCount{Label: Label(i).String(), Count: n})
		}
		if n := o.serialByLabel[i].Load(); n > 0 {
			r.SerialLabels = append(r.SerialLabels, LabelCount{Label: Label(i).String(), Count: n})
		}
	}
	sortLabels(r.ConflictLabels)
	sortLabels(r.SerialLabels)
	for i := range o.orecHeat {
		if n := o.orecHeat[i].n.Load(); n > 0 {
			lc := "(unlabeled)"
			if l := o.orecHeat[i].last.Load(); l > 0 {
				lc = Label(l - 1).String()
			}
			r.HotOrecs = append(r.HotOrecs, OrecCount{Orec: i, Count: n, LastLabel: lc})
		}
	}
	if len(o.shardHeat) > 0 {
		r.Shards = len(o.shardHeat)
		for s := range o.shardHeat {
			for i := 0; i < NumLabels(); i++ {
				if n := o.shardHeat[s].aborts[i].Load(); n > 0 {
					r.ShardConflicts = append(r.ShardConflicts,
						LabelCount{Label: fmt.Sprintf("s%d/%s", s, Label(i)), Count: n})
				}
			}
		}
		sortLabels(r.ShardConflicts)
	}
	r.CrossShardOrecConflicts = o.crossShard.Load()
	sort.Slice(r.HotOrecs, func(i, j int) bool {
		if r.HotOrecs[i].Count != r.HotOrecs[j].Count {
			return r.HotOrecs[i].Count > r.HotOrecs[j].Count
		}
		return r.HotOrecs[i].Orec < r.HotOrecs[j].Orec
	})
	if topOrecs > 0 && len(r.HotOrecs) > topOrecs {
		r.HotOrecs = r.HotOrecs[:topOrecs]
	}
	for p := Phase(0); p < phaseN; p++ {
		if s := o.phases[p].Snapshot(); s.Count > 0 {
			r.Phases[p.String()] = s
		}
	}
	o.cmds.Range(func(k, v any) bool {
		if s := v.(*Histogram).Snapshot(); s.Count > 0 {
			r.Commands[k.(string)] = s
		}
		return true
	})
	return r
}
