package eager

import (
	"errors"
	"fmt"

	"repro/internal/aset"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/tm"
)

// Base is the engine-generic half every engine embeds by value: the
// memory system, stats, tracer, batching switch, transaction sequence and
// per-thread recycling.
type Base struct {
	Caches *cache.System // thread i runs on core i
	Tracer tm.Tracer     // set through SetTracer
	TxnSeq uint64
	Batch  bool // horizon batching: the configuration admits it, no tracer

	name  string
	stats tm.Stats
	// lastTxn recycles each thread's most recent transaction object, so
	// its grown access sets are reused without rehash churn.
	lastTxn    []*Attempt
	readSlack  uint64
	readCharge uint64
	batchable  bool
	refSets    bool
}

// Init names the engine and builds its memory system (referenceStore:
// the dense backing, the paged store's oracle; referenceSets: write logs
// in aset.LineMap's reference mode). readSlack is the slack a thread
// publishes outside a writer's critical section, readCharge the smallest
// charge of one read (each promised or reserved read adds it to the
// slack; see Attempt.PromiseReads); batchable says whether the
// configuration admits batching.
func (e *Base) Init(name string, c cache.Config, referenceStore, referenceSets bool, readSlack, readCharge uint64, batchable bool) {
	e.Caches = cache.NewSystem(c, referenceStore)
	e.name, e.readSlack, e.readCharge = name, readSlack, readCharge
	e.batchable, e.Batch, e.refSets = batchable, batchable, referenceSets
}

// Name implements tm.Engine.
func (e *Base) Name() string { return e.name }

// Stats implements tm.Engine.
func (e *Base) Stats() *tm.Stats { return &e.stats }

// SetTracer implements tm.Engine. Tracing pins the per-access event
// order, so it also disables the horizon-batched path.
func (e *Base) SetTracer(tr tm.Tracer) {
	e.Tracer, e.Batch = tr, e.batchable && tr == nil
}

// ReleaseCaches returns the simulated cache arrays to the configured
// scratch pool once the run's statistics are extracted; the engine must
// not run transactions afterwards.
func (e *Base) ReleaseCaches() { e.Caches.Release() }

// CacheStats returns aggregate cache statistics over all cores.
func (e *Base) CacheStats() cache.Stats { return e.Caches.Stats() }

// Audit checks at quiescence that every recycled transaction finished
// with an empty write log and, through its Leaks method, with the
// engine's own sets empty. It reports the lowest offending thread.
func (e *Base) Audit() error {
	for id, x := range e.lastTxn {
		if x == nil {
			continue
		}
		err := x.self.(interface{ Leaks() error }).Leaks()
		switch {
		case !x.Finished:
			err = errors.New("transaction unfinished")
		case x.Writes.Len() != 0:
			err = fmt.Errorf("leaked %d write-log lines", x.Writes.Len())
		}
		if err != nil {
			return fmt.Errorf("%s: thread %d %v", e.name, id, err)
		}
	}
	return nil
}

// Recycle returns thread id's transaction from its previous attempt if
// that attempt has finished, else nil: the engine then allocates one.
func (e *Base) Recycle(id int) tm.Txn {
	if id < len(e.lastTxn) && e.lastTxn[id] != nil && e.lastTxn[id].Finished {
		return e.lastTxn[id].self
	}
	return nil
}

// Open starts attempt x, the base of engine transaction self, on thread
// t; a fresh x is bound to t's core and becomes what Recycle returns. The
// thread object can differ across scheduler runs.
func (e *Base) Open(x *Attempt, self tm.Txn, t *sched.Thread) {
	if x.base == nil {
		id := t.ID()
		for id >= len(e.lastTxn) {
			e.lastTxn = append(e.lastTxn, nil)
		}
		x.base, x.Hier, x.self = e, e.Caches.Core(id), self
		e.lastTxn[id] = x
		if e.refSets {
			x.Writes.SetReference()
		}
	}
	e.TxnSeq++
	x.Thread, x.id, x.Label, x.Finished = t, e.TxnSeq, "", false
	t.SetSlack(e.readSlack)
	if e.Tracer != nil {
		e.Tracer.TxnBegin(x.id, t.ID())
	}
	t.Tick(2)
}

// Attempt is the engine-generic state of one transaction attempt.
type Attempt struct {
	base     *Base
	Thread   *sched.Thread
	Hier     *cache.Hierarchy
	id       uint64
	Label    string        // the site of the next access (Site)
	Writes   aset.WriteLog // speculative stores, in first-write order
	Finished bool
	self     tm.Txn
	// owed counts the reads outstanding: those still promised under
	// PromiseReads plus the reserved ones, guaranteed after the current
	// operation (ReserveReads). One sum keeps the checks of Write,
	// Commit, Abort and a peer's doom to one load.
	owed, reserved int
}

// PromiseReads implements tm.Txn. The promise is honoured only while the
// engine batches and the write log is empty: the thread's next write or
// commit then lies behind n more read charges of at least readCharge
// each, so until those reads are spent it publishes readSlack +
// (remaining + reserved) × readCharge, and a peer's horizon reaches past
// its next read. A promise never lowers an outstanding count: the reads
// already promised are still owed. Elsewhere it is a no-op.
func (x *Attempt) PromiseReads(n int) {
	if n > x.owed-x.reserved && x.base.Batch && x.Writes.Len() == 0 {
		x.owed = x.reserved + n
		x.publish()
	}
}

// ReserveReads implements tm.Txn: n reads are guaranteed after the
// current operation, on top of any promised. Reads do not spend the
// reserve; the caller sets it, and lowers it to zero before any
// operation that may write. It is honoured where PromiseReads is.
func (x *Attempt) ReserveReads(n int) {
	if x.base.Batch && x.Writes.Len() == 0 {
		x.owed += n - x.reserved
		x.reserved = n
		x.publish()
	}
}

// SpendRead consumes one promised read, if any is outstanding, and
// republishes the slack of the reads left. Every engine read calls it
// before its charge, so a park inside that charge publishes only the
// reads that follow it.
func (x *Attempt) SpendRead() {
	if x.owed != x.reserved {
		x.owed--
		x.publish()
	}
}

// publish sets the slack of the outstanding promised and reserved reads.
func (x *Attempt) publish() {
	x.Thread.SetSlack(x.base.readSlack + uint64(x.owed)*x.base.readCharge)
}

// KeepPromise panics if promised or reserved reads are outstanding: op —
// Write, Commit or an explicit Abort — breaks the promise, and a peer
// may already have batched past the effect it leads to. A conflict abort
// does not break it: the engine dooms the attempt (see Revoke) or
// aborts it inside a read, and finish clears both counts.
func (x *Attempt) KeepPromise(op string) {
	if x.owed != 0 {
		x.breakPromise(op)
	}
}

func (x *Attempt) breakPromise(op string) {
	panic(fmt.Sprintf("%s: transaction %d on thread %d: %s with %d promised reads outstanding, %d reserved",
		x.base.name, x.id, x.Thread.ID(), op, x.owed-x.reserved, x.reserved))
}

// Revoke drops the outstanding promise and reserve of an attempt a peer
// has just doomed, and lowers its parked thread's slack back to
// readSlack (sched.Thread.RevokeSlack): the doomed attempt unwinds at
// its next access instead of reading on, and its retry may write at
// once.
func (x *Attempt) Revoke() {
	if x.owed != 0 {
		x.revoke()
	}
}

// revoke stays out of line so that Revoke, and eager.Txn.Doom through
// it, inline under any profile.
//
//go:noinline
func (x *Attempt) revoke() {
	x.owed, x.reserved = 0, 0
	x.Thread.RevokeSlack(x.base.readSlack)
}

// Site implements tm.Txn.
func (x *Attempt) Site(s string) tm.Txn { x.Label = s; return x.self }

// Fence implements tm.Txn (see sched.Thread.Fence).
func (x *Attempt) Fence() { x.Thread.Fence() }

// TraceRead and TraceWrite report an access of a to the tracer, if any.
func (x *Attempt) TraceRead(a mem.Addr) {
	if x.base.Tracer != nil {
		x.base.Tracer.TxnRead(x.id, a, x.Label)
	}
}

func (x *Attempt) TraceWrite(a mem.Addr) {
	if x.base.Tracer != nil {
		x.base.Tracer.TxnWrite(x.id, a, x.Label)
	}
}

// Aborted and Committed finish the attempt once the engine has dropped
// its own state, and count and trace the outcome.
func (x *Attempt) Aborted(kind tm.AbortKind) {
	x.finish()
	x.base.stats.Count(kind)
	if x.base.Tracer != nil {
		x.base.Tracer.TxnAbort(x.id)
	}
}

func (x *Attempt) Committed(readOnly bool) {
	x.finish()
	x.base.stats.Commits++
	if readOnly {
		x.base.stats.ReadOnly++
	}
	if x.base.Tracer != nil {
		x.base.Tracer.TxnCommit(x.id)
	}
}

// finish resets the write log (keeping its capacity), drops any promised
// and reserved reads and re-publishes the out-of-critical-section slack.
func (x *Attempt) finish() {
	x.Finished, x.owed, x.reserved = true, 0, 0
	x.Thread.SetSlack(x.base.readSlack)
	x.Writes.Reset()
}
