package engine

import (
	"repro/internal/access"
	"repro/internal/assoc"
	"repro/internal/stm"
	"repro/internal/tm"
)

// Wire transactions: the engine half of the txbegin/txcommit protocol
// extension. The protocol layer queues a client's mutations and records the
// CAS value of every in-transaction read; CommitTx turns that record into one
// server-side transaction over the touched keys — validate every read
// CAS-style, then apply every queued op, atomically.
//
// Keys may hash to different shards, and the shards are fully independent TM
// domains (disjoint orec tables, clocks, serial locks), so a cross-shard
// commit cannot ride a single speculative transaction. Instead it is the
// N-domain commit path: the touched shards' serial write locks are acquired
// in ascending shard-index order, each acquisition blocking, by opening a
// serial-irrevocable transaction on each shard's worker thread; the work runs
// with all touched domains held, and the nested commits release in
// descending order. Every committer acquires in the same global order, so no
// two can wait on each other in a cycle; shards the transaction does not
// touch are never locked. Single-shard transactions skip all of this and run
// as one speculative relaxed transaction; if the op mix reaches an unsafe
// operation under the branch's profile, the runtime's in-flight switch
// escalates it to serial exactly as it does any other section.

// TxOpKind is a queued wire-transaction mutation.
type TxOpKind int

const (
	TxSet TxOpKind = iota
	TxDel
	TxTouch
	TxIncr
	TxDecr
)

func (k TxOpKind) String() string {
	switch k {
	case TxSet:
		return "set"
	case TxDel:
		return "delete"
	case TxTouch:
		return "touch"
	case TxIncr:
		return "incr"
	case TxDecr:
		return "decr"
	}
	return "txop?"
}

// TxOp is one queued mutation. Exptime is absolute (the protocol layer
// resolves relative times at queue time, so a transaction held open does not
// shift its items' expiries).
type TxOp struct {
	Kind    TxOpKind
	Key     []byte
	Flags   uint32
	Exptime uint64
	Value   []byte
	Delta   uint64 // incr/decr amount
}

// TxRead is one in-transaction read to validate at commit: the key and the
// CAS id observed when the client issued the get (0 = the key was absent).
type TxRead struct {
	Key []byte
	CAS uint64
}

// TxOpResult is the per-op outcome reported in the commit reply.
type TxOpResult struct {
	Kind     TxOpKind
	Store    StoreResult // TxSet
	Found    bool        // TxDel, TxTouch
	NewValue uint64      // TxIncr, TxDecr
	Delta    DeltaResult // TxIncr, TxDecr
}

// TxOutcome is the result of CommitTx.
type TxOutcome struct {
	// Committed reports that every read validated and every op applied. When
	// false, ConflictKey names the first read whose CAS no longer matched and
	// nothing was applied.
	Committed   bool
	ConflictKey []byte
	Results     []TxOpResult
	// Shards is the number of distinct TM domains the transaction touched.
	Shards int
}

// TxSupported reports whether the branch can serve wire transactions. Three
// things disqualify a configuration:
//
//   - lock branches: there is no transaction to map the client's onto;
//   - IP-family branches: item stripes are transactional booleans HELD ACROSS
//     transactions (acquire commits, body runs, release commits), so a
//     serial-irrevocable commit that spins on a stripe held by another worker
//     deadlocks — the owner needs the serial lock's read side to release;
//   - NoSerialLock runtimes: without the global readers/writer lock a serial
//     section excludes only other serial sections, not speculative
//     transactions, so the multi-key commit would not be atomic.
func (c *Cache) TxSupported() bool {
	return c.cfg.tm && c.cfg.itemTx && !c.shards[0].rt.Config().NoSerialLock
}

// TxSupported reports whether the branch can serve wire transactions.
func (w *Worker) TxSupported() bool { return w.c.TxSupported() }

// CommitTx validates reads and applies ops as one atomic transaction across
// every touched shard. The caller must have gated on TxSupported.
func (w *Worker) CommitTx(reads []TxRead, ops []TxOp) TxOutcome {
	if !w.c.TxSupported() {
		panic("engine: CommitTx on branch " + w.c.conf.Branch.String() + " without wire-transaction support")
	}

	// Hash every key exactly once; the same value routes the shard and
	// indexes inside it.
	readHvs := make([]uint64, len(reads))
	opHvs := make([]uint64, len(ops))
	touched := make([]bool, len(w.ws))
	seen := 0
	note := func(hv uint64) {
		s := 0
		if len(w.ws) > 1 {
			s = shardIndex(hv, len(w.ws))
		}
		if !touched[s] {
			touched[s] = true
			seen++
		}
	}
	for i := range reads {
		readHvs[i] = assoc.Hash(reads[i].Key)
		note(readHvs[i])
	}
	for i := range ops {
		opHvs[i] = assoc.Hash(ops[i].Key)
		note(opHvs[i])
	}
	order := make([]int, 0, seen)
	for s := range w.ws {
		if touched[s] {
			order = append(order, s)
		}
	}

	out := TxOutcome{Results: make([]TxOpResult, len(ops)), Shards: len(order)}

	// body runs with every touched domain held (or inside the single-shard
	// speculative transaction, which may retry it — everything it writes to
	// `out` is reset up front so a re-run starts clean). Validation of ALL
	// reads strictly precedes the first apply: a serial-irrevocable
	// transaction cannot roll back, so nothing may be written until the whole
	// read set is known good.
	body := func() {
		out.Committed, out.ConflictKey = false, nil
		ok := true
		for i := range reads {
			sw := w.pick(readHvs[i])
			if sw.casOf(readHvs[i], reads[i].Key) != reads[i].CAS {
				out.ConflictKey = reads[i].Key
				ok = false
				break
			}
		}
		if !ok {
			return
		}
		for i := range ops {
			out.Results[i] = w.pick(opHvs[i]).applyTxOp(opHvs[i], &ops[i])
		}
		out.Committed = true
	}

	low := 0 // counter-attribution shard: lowest touched index
	switch len(order) {
	case 0:
		// Empty transaction: trivially consistent.
		out.Committed = true
	case 1:
		low = order[0]
		sw := w.ws[low]
		_ = tm.Relaxed(sw.tctx, tm.Options{Site: "wiretx_commit"}, func(*stm.Tx) { body() })
	default:
		low = order[0]
		w.orderedCommit(order, body)
	}

	sh := w.ws[low].c
	if out.Committed {
		sh.txCommits.Add(1)
	} else {
		sh.txConflicts.Add(1)
	}
	return out
}

// orderedCommit opens a serial-irrevocable transaction on each listed shard's
// worker thread in ascending index order, blocking until each domain's serial
// lock is free, each nested inside the previous so releases unwind in
// descending order, and runs body with all of them held. The threads are
// distinct per shard, so the nesting never flattens here; the operations body
// issues DO flatten, each into its own shard's open serial transaction.
func (w *Worker) orderedCommit(order []int, body func()) {
	if len(order) == 0 {
		body()
		return
	}
	_ = tm.Relaxed(w.ws[order[0]].tctx, tm.Options{StartSerial: true, Site: "wiretx_commit"}, func(*stm.Tx) {
		w.orderedCommit(order[1:], body)
	})
}

// casOf reads the current CAS id of key on this shard (0 = absent or
// expired): the commit-time revalidation of an in-transaction read. Inside
// CommitTx it flattens into the shard's open transaction; the profile matches
// item_get minus the copy-out (Find reads the volatile expansion flag and
// compares keys with memcmp).
func (w *shardWorker) casOf(hv uint64, key []byte) uint64 {
	now := w.volatileLoad(w.c.CurrentTime)
	flushAt := w.volatileLoad(w.c.flushBefore)
	var cas uint64
	body := func(ctx access.Ctx) {
		cas = 0
		it := w.c.tab.Find(ctx, hv, key)
		if it == nil || w.expired(ctx, it, now, flushAt) {
			return
		}
		cas = ctx.Word(&it.CasID)
	}
	if w.c.cfg.itemTx {
		w.section(domains{cache: true}, profile{volatiles: true, volatileFirst: true, libc: true, ro: true, site: "wiretx_validate"}, body)
	} else {
		w.itemLock(hv)
		body(w.dctx)
		w.itemUnlock(hv)
	}
	return cas
}

// applyTxOp applies one queued mutation through the shard's normal internals,
// flattening into whatever transaction is open on this shard's thread.
func (w *shardWorker) applyTxOp(hv uint64, op *TxOp) TxOpResult {
	r := TxOpResult{Kind: op.Kind}
	switch op.Kind {
	case TxSet:
		r.Store = w.store(ModeSet, hv, op.Key, op.Flags, op.Exptime, op.Value, 0)
	case TxDel:
		r.Found = w.del(hv, op.Key)
	case TxTouch:
		r.Found = w.touch(hv, op.Key, op.Exptime)
	case TxIncr:
		r.NewValue, r.Delta = w.delta(hv, op.Key, op.Delta, false)
	case TxDecr:
		r.NewValue, r.Delta = w.delta(hv, op.Key, op.Delta, true)
	}
	return r
}
