// Package mcstats holds memcached's statistics counters: the global counters
// protected by the stats lock (the second-most contended lock in the paper's
// mutrace profile) and the per-thread counters protected by per-thread locks
// — which, being pthread mutexes, are unsafe inside atomic transactions and
// therefore had to be transactionalized even though they are never contended
// (§3.1).
package mcstats

import (
	"sync/atomic"

	"repro/internal/access"
	"repro/internal/stm"
	"repro/internal/txobs"
)

// Observability labels: the paper's mutrace profile ranks the stats lock
// second-most contended, so being able to see "stats_global" atop `stats
// conflicts` is exactly the diagnosis §6 wanted.
var (
	lblStatsGlobal = txobs.RegisterLabel("stats_global")
	lblStatsThread = txobs.RegisterLabel("stats_thread")
)

// ConnErrors counts connection teardowns by cause at the server front end.
// These counters live outside every lock/transaction domain (the connection
// layer is nontransactional even in memcached), so they are plain atomics
// rather than TWords.
type ConnErrors struct {
	IO       atomic.Uint64 // transport failures: resets, short writes, unexpected close
	Protocol atomic.Uint64 // malformed framing that forced a disconnect
	Timeout  atomic.Uint64 // read/write/idle deadline expiries

	// Reply-batching effectiveness at the protocol layer (not errors, but the
	// same nontransactional per-server home): Flushes counts actual writes of
	// buffered replies to the transport, BatchedReplies counts replies whose
	// flush was deferred because more pipelined input was already readable,
	// and WritevBatches counts multi-get responses handed to the transport as
	// one gathered writev-style write.
	Flushes        atomic.Uint64
	BatchedReplies atomic.Uint64
	WritevBatches  atomic.Uint64
}

// Global is the stats-lock domain (stats.c globals that never moved to
// per-thread storage).
type Global struct {
	TotalItems  *stm.TWord
	CurrItems   *stm.TWord
	CurrBytes   *stm.TWord
	Evictions   *stm.TWord
	Expired     *stm.TWord
	Reassigned  *stm.TWord // slab pages moved by the rebalancer
	HashExpands *stm.TWord
}

// NewGlobal allocates zeroed global counters.
func NewGlobal() *Global {
	return &Global{
		TotalItems:  stm.NewTWord(0).Label(lblStatsGlobal),
		CurrItems:   stm.NewTWord(0).Label(lblStatsGlobal),
		CurrBytes:   stm.NewTWord(0).Label(lblStatsGlobal),
		Evictions:   stm.NewTWord(0).Label(lblStatsGlobal),
		Expired:     stm.NewTWord(0).Label(lblStatsGlobal),
		Reassigned:  stm.NewTWord(0).Label(lblStatsGlobal),
		HashExpands: stm.NewTWord(0).Label(lblStatsGlobal),
	}
}

// Thread is one worker's statistics block (per-thread lock domain).
type Thread struct {
	GetCmds    *stm.TWord
	GetHits    *stm.TWord
	GetMisses  *stm.TWord
	SetCmds    *stm.TWord
	DeleteHits *stm.TWord
	DeleteMiss *stm.TWord
	IncrHits   *stm.TWord
	IncrMiss   *stm.TWord
	CasHits    *stm.TWord
	CasMiss    *stm.TWord
	CasBadval  *stm.TWord
	TouchCmds  *stm.TWord
	Expired    *stm.TWord
}

// NewThread allocates zeroed per-thread counters.
func NewThread() *Thread {
	return &Thread{
		GetCmds:    stm.NewTWord(0).Label(lblStatsThread),
		GetHits:    stm.NewTWord(0).Label(lblStatsThread),
		GetMisses:  stm.NewTWord(0).Label(lblStatsThread),
		SetCmds:    stm.NewTWord(0).Label(lblStatsThread),
		DeleteHits: stm.NewTWord(0).Label(lblStatsThread),
		DeleteMiss: stm.NewTWord(0).Label(lblStatsThread),
		IncrHits:   stm.NewTWord(0).Label(lblStatsThread),
		IncrMiss:   stm.NewTWord(0).Label(lblStatsThread),
		CasHits:    stm.NewTWord(0).Label(lblStatsThread),
		CasMiss:    stm.NewTWord(0).Label(lblStatsThread),
		CasBadval:  stm.NewTWord(0).Label(lblStatsThread),
		TouchCmds:  stm.NewTWord(0).Label(lblStatsThread),
		Expired:    stm.NewTWord(0).Label(lblStatsThread),
	}
}

// Aggregated is the per-thread counters as plain values: the sum Aggregate
// reads over every block, or one command's counts that Thread.Add applies.
type Aggregated struct {
	GetCmds, GetHits, GetMisses uint64
	SetCmds                     uint64
	DeleteHits, DeleteMiss      uint64
	IncrHits, IncrMiss          uint64
	CasHits, CasMiss, CasBadval uint64
	TouchCmds, Expired          uint64
}

// Add adds d's nonzero counts to t via c. A zero count is no access at all,
// so a transactional update writes exactly the counters the command moved.
func (t *Thread) Add(c access.Ctx, d Aggregated) {
	addNonzero(c, t.GetCmds, d.GetCmds)
	addNonzero(c, t.GetHits, d.GetHits)
	addNonzero(c, t.GetMisses, d.GetMisses)
	addNonzero(c, t.SetCmds, d.SetCmds)
	addNonzero(c, t.DeleteHits, d.DeleteHits)
	addNonzero(c, t.DeleteMiss, d.DeleteMiss)
	addNonzero(c, t.IncrHits, d.IncrHits)
	addNonzero(c, t.IncrMiss, d.IncrMiss)
	addNonzero(c, t.CasHits, d.CasHits)
	addNonzero(c, t.CasMiss, d.CasMiss)
	addNonzero(c, t.CasBadval, d.CasBadval)
	addNonzero(c, t.TouchCmds, d.TouchCmds)
	addNonzero(c, t.Expired, d.Expired)
}

func addNonzero(c access.Ctx, w *stm.TWord, n uint64) {
	if n != 0 {
		c.AddWord(w, n)
	}
}

// Reset zeroes every counter of t via c ("stats reset").
func (t *Thread) Reset(c access.Ctx) {
	for _, w := range [...]*stm.TWord{
		t.GetCmds, t.GetHits, t.GetMisses, t.SetCmds,
		t.DeleteHits, t.DeleteMiss, t.IncrHits, t.IncrMiss,
		t.CasHits, t.CasMiss, t.CasBadval, t.TouchCmds, t.Expired,
	} {
		c.SetWord(w, 0)
	}
}

// Aggregate sums the per-thread blocks into a plain snapshot, reading each
// block under c (memcached's threadlocal_stats_aggregate takes every
// per-thread lock; transactional branches read inside a transaction).
func Aggregate(c access.Ctx, blocks []*Thread) Aggregated {
	var a Aggregated
	for _, t := range blocks {
		a.GetCmds += c.Word(t.GetCmds)
		a.GetHits += c.Word(t.GetHits)
		a.GetMisses += c.Word(t.GetMisses)
		a.SetCmds += c.Word(t.SetCmds)
		a.DeleteHits += c.Word(t.DeleteHits)
		a.DeleteMiss += c.Word(t.DeleteMiss)
		a.IncrHits += c.Word(t.IncrHits)
		a.IncrMiss += c.Word(t.IncrMiss)
		a.CasHits += c.Word(t.CasHits)
		a.CasMiss += c.Word(t.CasMiss)
		a.CasBadval += c.Word(t.CasBadval)
		a.TouchCmds += c.Word(t.TouchCmds)
		a.Expired += c.Word(t.Expired)
	}
	return a
}

// Add returns the field-wise sum of a and o — merging per-shard aggregates
// into the engine-level "stats" view of a sharded cache.
func (a Aggregated) Add(o Aggregated) Aggregated {
	a.GetCmds += o.GetCmds
	a.GetHits += o.GetHits
	a.GetMisses += o.GetMisses
	a.SetCmds += o.SetCmds
	a.DeleteHits += o.DeleteHits
	a.DeleteMiss += o.DeleteMiss
	a.IncrHits += o.IncrHits
	a.IncrMiss += o.IncrMiss
	a.CasHits += o.CasHits
	a.CasMiss += o.CasMiss
	a.CasBadval += o.CasBadval
	a.TouchCmds += o.TouchCmds
	a.Expired += o.Expired
	return a
}

// Ops sums the command counters into one operations-processed figure — the
// time-series denominator the tracing layer plots abort and serialization
// rates against. Hits and misses of the same command family count once.
func (a Aggregated) Ops() uint64 {
	return a.GetCmds + a.SetCmds +
		a.DeleteHits + a.DeleteMiss +
		a.IncrHits + a.IncrMiss +
		a.CasHits + a.CasMiss + a.CasBadval +
		a.TouchCmds
}
