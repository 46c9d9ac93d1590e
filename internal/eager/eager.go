// Package eager is the eager HTM the paper's two baselines (§6.1) share.
// 2PL (internal/twopl) and SONTM (internal/sontm) differ only in their
// conflict rule, so each embeds Engine and Txn by value and adds its
// rule's tables, Read, Write and Commit; the calls stay static and
// inlinable (DESIGN.md "Eager baselines").
package eager

import (
	"fmt"

	"repro/internal/aset"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/tm"
)

// Engine is the state and tm.Engine surface the baselines share.
type Engine struct {
	Caches  *cache.System        // thread i runs on core i
	Tracer  tm.Tracer            // set through SetTracer
	Words   mem.Paged[uint64]    // committed value per word
	Readers aset.ReadHolds[*Txn] // live readers per line, a bitmap over slots
	TxnSeq  uint64
	Batch   bool // horizon batching: the configuration admits it, no tracer

	name  string
	stats tm.Stats
	// lastTxn recycles each thread's most recent transaction object, so
	// its grown access sets are reused without rehash churn.
	lastTxn   []*Txn
	readSlack uint64
	batchable bool
}

// Init names the engine and builds its memory system (referenceStore:
// the dense backing, the paged store's oracle). readSlack is the slack a
// thread publishes while its transaction has written nothing; batchable
// says whether the configuration admits batching.
func (e *Engine) Init(name string, c cache.Config, referenceStore bool, readSlack uint64, batchable bool) {
	e.Caches = cache.NewSystem(c, referenceStore)
	if referenceStore {
		e.Words.SetReference()
		e.Readers.SetReference()
	}
	e.name, e.readSlack, e.batchable, e.Batch = name, readSlack, batchable, batchable
}

// Name implements tm.Engine.
func (e *Engine) Name() string { return e.name }

// Stats implements tm.Engine.
func (e *Engine) Stats() *tm.Stats { return &e.stats }

// Promote implements tm.Engine. Both baselines are serializable, so
// promotion is a no-op: there is no write skew to repair.
func (e *Engine) Promote(string) {}

// SetTracer implements tm.Engine. Tracing pins the per-access event
// order, so it also disables the horizon-batched path.
func (e *Engine) SetTracer(tr tm.Tracer) {
	e.Tracer, e.Batch = tr, e.batchable && tr == nil
}

// NonTxRead implements tm.Engine.
//
//sitm:allow(yieldlint) workload setup/verification API, called before threads start or after they quiesce
func (e *Engine) NonTxRead(a mem.Addr) uint64 { return e.Words.Load(mem.WordIndex(a)) }

// NonTxWrite implements tm.Engine.
//
//sitm:allow(yieldlint) workload setup/verification API, called before threads start or after they quiesce
func (e *Engine) NonTxWrite(a mem.Addr, v uint64) { *e.Words.Slot(mem.WordIndex(a)) = v }

// ReleaseCaches returns the simulated cache arrays to the configured
// scratch pool once the run's statistics are extracted; the engine must
// not run transactions afterwards.
func (e *Engine) ReleaseCaches() { e.Caches.Release() }

// CacheStats returns aggregate cache statistics over all cores.
func (e *Engine) CacheStats() cache.Stats { return e.Caches.Stats() }

// Audit is the shared half of the baselines' AuditAccessSets: every
// recycled transaction has finished with empty sets and no reader bit or
// slot is held. It reports the lowest offending thread or line.
func (e *Engine) Audit() error {
	for id, x := range e.lastTxn {
		switch {
		case x == nil:
		case !x.Finished:
			return fmt.Errorf("%s: thread %d transaction unfinished", e.name, id)
		case x.Writes.Len() != 0:
			return fmt.Errorf("%s: thread %d leaked %d write-log lines", e.name, id, x.Writes.Len())
		case len(x.ReadLines) != 0:
			return fmt.Errorf("%s: thread %d leaked %d read lines", e.name, id, len(x.ReadLines))
		}
	}
	if err := e.Readers.Audit(); err != nil {
		return fmt.Errorf("%s: %v after quiescence", e.name, err)
	}
	return nil
}

// Recycle returns thread id's transaction from its previous attempt if
// that attempt has finished, else nil: the baseline then allocates one.
func (e *Engine) Recycle(id int) tm.Txn {
	if id < len(e.lastTxn) && e.lastTxn[id] != nil && e.lastTxn[id].Finished {
		return e.lastTxn[id].self
	}
	return nil
}

// Open starts attempt x, the base of baseline transaction self, on
// thread t; a fresh x is bound to t's core and becomes what Recycle
// returns. The thread object can differ across scheduler runs.
func (e *Engine) Open(x *Txn, self tm.Txn, t *sched.Thread) {
	if x.e == nil {
		id := t.ID()
		for id >= len(e.lastTxn) {
			e.lastTxn = append(e.lastTxn, nil)
		}
		x.e, x.Hier, x.self = e, e.Caches.Core(id), self
		e.lastTxn[id] = x
	}
	e.TxnSeq++
	x.Thread, x.id = t, e.TxnSeq
	x.LastRead, x.site = NoLine, ""
	x.Doomed, x.Finished, x.DoomKind, x.DoomLine = false, false, 0, 0
	x.Slot = e.Readers.Take(x)
	t.SetSlack(e.readSlack)
	if e.Tracer != nil {
		e.Tracer.TxnBegin(x.id, t.ID())
	}
	t.Tick(2)
}

// NoLine is the LastRead sentinel: no real line has this number.
const NoLine = ^mem.Line(0)

// Txn is the state of one eager transaction attempt.
type Txn struct {
	e      *Engine
	Thread *sched.Thread
	Hier   *cache.Hierarchy
	id     uint64
	// Slot is this transaction's bit in the reader bitmaps; ReadLines
	// lists the lines it set, and LastRead memoises the previous read's
	// line, whose repeat skips AddRead.
	Slot      int
	ReadLines []mem.Line
	LastRead  mem.Line
	Writes    aset.WriteLog // speculative stores, in first-write order

	Doomed, Finished bool
	DoomKind         tm.AbortKind
	DoomLine         mem.Line
	site             string
	self             tm.Txn
}

// Site implements tm.Txn.
func (x *Txn) Site(s string) tm.Txn { x.site = s; return x.self }

// Fence implements tm.Txn (see sched.Thread.Fence).
func (x *Txn) Fence() { x.Thread.Fence() }

// Doom marks the transaction aborted by a conflict on line; the first
// doom is the one reported.
func (x *Txn) Doom(kind tm.AbortKind, line mem.Line) {
	if !x.Doomed {
		x.Doomed, x.DoomKind, x.DoomLine = true, kind, line
	}
}

// TraceRead and TraceWrite report an access of a to the tracer, if any.
func (x *Txn) TraceRead(a mem.Addr) {
	if x.e.Tracer != nil {
		x.e.Tracer.TxnRead(x.id, a, x.site)
	}
}

func (x *Txn) TraceWrite(a mem.Addr) {
	if x.e.Tracer != nil {
		x.e.Tracer.TxnWrite(x.id, a, x.site)
	}
}

// AddRead registers a read of line, which is not LastRead: it sets the
// reader bit and lists the line on its first read.
func (x *Txn) AddRead(line mem.Line) {
	if x.e.Readers.Add(x.Slot, line) {
		x.ReadLines = append(x.ReadLines, line)
	}
	x.LastRead = line
}

// Aborted and Committed finish the attempt once the baseline has dropped
// its own holds, and count and trace the outcome.
func (x *Txn) Aborted(kind tm.AbortKind) {
	x.release()
	x.e.stats.Count(kind)
	if x.e.Tracer != nil {
		x.e.Tracer.TxnAbort(x.id)
	}
}

func (x *Txn) Committed(readOnly bool) {
	x.release()
	x.e.stats.Commits++
	if readOnly {
		x.e.stats.ReadOnly++
	}
	if x.e.Tracer != nil {
		x.e.Tracer.TxnCommit(x.id)
	}
}

// release frees the reader bits and slot, resets the sets (keeping their
// capacity) and re-publishes the read-phase slack.
func (x *Txn) release() {
	x.Finished = true
	x.Thread.SetSlack(x.e.readSlack)
	x.e.Readers.Release(x.Slot, x.ReadLines)
	x.ReadLines = x.ReadLines[:0]
	x.Writes.Reset()
}

// WriteBack stores the write log to memory, then accesses and publishes
// each written line. With serial set each access is charged as it
// happens (2PL); otherwise the summed latency is returned for the
// caller's one trailing charge (SONTM).
func (x *Txn) WriteBack(serial bool) (cost uint64) {
	for i := 0; i < x.Writes.Len(); i++ {
		line, w := x.Writes.At(i)
		for word := 0; word < mem.WordsPerLine; word++ {
			if w.Mask&(1<<word) != 0 {
				x.e.Words.Store(mem.WordIndex(mem.WordAddr(line, word)), w.Words[word])
			}
		}
	}
	for _, line := range x.Writes.Lines() {
		if lat := x.Hier.Access(line); serial {
			x.Thread.Tick(lat)
		} else {
			cost += lat
		}
		x.e.Caches.Publish(x.Thread.ID(), line)
	}
	return cost
}
