package sontm

// The pre-aset access-set implementation, kept verbatim as the
// differential oracle for the signature-backed fast path (see
// Config.ReferenceSets). slowTxn tracks its read set, write set and write
// log in Go maps, exactly as the engine did before internal/aset existed.
// Results are bit-identical to the fast path; only simulator wall time
// changes. Do not "improve" this file: its value is being the unchanged
// original.

import (
	"repro/internal/cache"
	"repro/internal/eager"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/tm"
)

// slowTxn is one SONTM transaction attempt under the reference map-based
// access tracking.
type slowTxn struct {
	e  *Engine
	t  *sched.Thread
	h  *cache.Hierarchy
	id uint64

	lo, hi uint64 // SON interval, inclusive

	readSet map[mem.Line]struct{}
	// lastRead memoises the line of the previous Read: the readSet
	// insert is idempotent and entries are never removed mid-transaction
	// (commit broadcasts only probe membership), so a repeat read of the
	// same line skips the map write.
	lastRead mem.Line
	writeSet map[mem.Line]struct{}
	writeLog map[mem.Addr]uint64
	// writeOrder preserves first-write order so commit-time cache
	// charging is deterministic (map iteration is not).
	writeOrder []mem.Line

	// activeIdx is this transaction's slot in Engine.activeSlow while
	// in flight (swap-remove bookkeeping).
	activeIdx int

	doomed   bool
	doomLine mem.Line
	finished bool
	site     string
}

var _ tm.Txn = (*slowTxn)(nil)

// beginSlow is the reference-path tm.Engine.Begin.
func (e *Engine) beginSlow(t *sched.Thread) tm.Txn {
	e.TxnSeq++
	var tx *slowTxn
	if old := e.lastTxnSlow[t.ID()]; old != nil && old.finished {
		// clear keeps the maps' grown capacity, so steady-state
		// transactions insert without rehashing.
		clear(old.readSet)
		clear(old.writeSet)
		clear(old.writeLog)
		*old = slowTxn{
			e: e, t: t, h: old.h, id: e.TxnSeq,
			lo: 1, hi: maxSON,
			readSet:    old.readSet,
			lastRead:   eager.NoLine,
			writeSet:   old.writeSet,
			writeLog:   old.writeLog,
			writeOrder: old.writeOrder[:0],
		}
		tx = old
	} else {
		tx = &slowTxn{
			e: e, t: t, h: e.Caches.Core(t.ID()), id: e.TxnSeq,
			lo: 1, hi: maxSON,
			readSet:  make(map[mem.Line]struct{}),
			lastRead: eager.NoLine,
			writeSet: make(map[mem.Line]struct{}),
			writeLog: make(map[mem.Addr]uint64),
		}
		e.lastTxnSlow[t.ID()] = tx
	}
	tx.activeIdx = len(e.activeSlow)
	e.activeSlow = append(e.activeSlow, tx)
	if e.Tracer != nil {
		e.Tracer.TxnBegin(tx.id, t.ID())
	}
	t.Tick(2)
	return tx
}

// Site implements tm.Txn.
func (x *slowTxn) Site(s string) tm.Txn { x.site = s; return x }

// Fence, PromiseReads and ReserveReads implement tm.Txn: the reference
// path never batches, so its thread is always at a per-event scheduling
// point and publishes no slack to extend.
func (x *slowTxn) Fence()           {}
func (x *slowTxn) PromiseReads(int) {}
func (x *slowTxn) ReserveReads(int) {}

// raiseLo raises the lower bound; the interval emptying dooms the txn.
func (x *slowTxn) raiseLo(v uint64, line mem.Line) {
	if v > x.lo {
		x.lo = v
	}
	if x.lo > x.hi {
		x.doomed = true
		x.doomLine = line
	}
}

// clampHi lowers the upper bound; the interval emptying dooms the txn.
func (x *slowTxn) clampHi(v uint64, line mem.Line) {
	if v < x.hi {
		x.hi = v
	}
	if x.lo > x.hi {
		x.doomed = true
		x.doomLine = line
	}
}

// checkDoom unwinds (via the tm abort signal) if the SON interval has
// emptied; used on the Read/Write paths.
func (x *slowTxn) checkDoom() {
	if !x.doomed {
		return
	}
	x.abortDoomed()
	tm.SignalAbort(tm.AbortOrder, x.doomLine)
}

// abortDoomed finalises a doomed transaction and returns its abort error;
// used on the Commit path.
func (x *slowTxn) abortDoomed() error {
	x.cleanup()
	x.e.Stats().Count(tm.AbortOrder)
	if x.e.Tracer != nil {
		x.e.Tracer.TxnAbort(x.id)
	}
	return &tm.AbortError{Kind: tm.AbortOrder, Line: x.doomLine}
}

// Read implements tm.Txn: the transaction must serialize after the
// committed writer whose value it reads.
func (x *slowTxn) Read(a mem.Addr) uint64 {
	x.checkDoom()
	line := mem.LineOf(a)
	x.t.Tick(x.h.Access(line))
	if x.e.Tracer != nil {
		x.e.Tracer.TxnRead(x.id, a, x.site)
	}
	if line != x.lastRead {
		x.readSet[line] = struct{}{}
		x.lastRead = line
	}
	x.raiseLo(x.e.writeNums.Load(uint64(line))+1, line)
	x.checkDoom()
	if len(x.writeLog) != 0 {
		if v, ok := x.writeLog[a]; ok {
			return v
		}
	}
	return x.e.Words.Load(mem.WordIndex(a))
}

// ReadPromoted implements tm.Txn; SONTM is serializable, so it is an
// ordinary read.
func (x *slowTxn) ReadPromoted(a mem.Addr) uint64 { return x.Read(a) }

// Write implements tm.Txn: the store is logged; the transaction must
// serialize after the last committed writer of the line.
func (x *slowTxn) Write(a mem.Addr, v uint64) {
	x.checkDoom()
	line := mem.LineOf(a)
	x.t.Tick(x.h.Access(line))
	if x.e.Tracer != nil {
		x.e.Tracer.TxnWrite(x.id, a, x.site)
	}
	// One map operation instead of probe-then-insert: the length delta
	// reveals whether the assignment was a first write.
	n := len(x.writeSet)
	x.writeSet[line] = struct{}{}
	if len(x.writeSet) != n {
		x.writeOrder = append(x.writeOrder, line)
	}
	x.writeLog[a] = v
	x.raiseLo(x.e.writeNums.Load(uint64(line))+1, line)
	x.checkDoom()
}

func (x *slowTxn) cleanup() {
	a := x.e.activeSlow
	last := len(a) - 1
	moved := a[last]
	a[x.activeIdx] = moved
	moved.activeIdx = x.activeIdx
	a[last] = nil
	x.e.activeSlow = a[:last]
	x.finished = true
}

// Abort implements tm.Txn.
func (x *slowTxn) Abort() {
	if x.finished {
		return
	}
	x.cleanup()
	x.e.Stats().Count(tm.AbortExplicit)
	if x.e.Tracer != nil {
		x.e.Tracer.TxnAbort(x.id)
	}
	x.t.Tick(2)
}

// Commit implements tm.Txn: the transaction picks the smallest SON in its
// interval, serializes after committed readers of its write set, and
// broadcasts the write set so concurrent transactions adjust their own
// intervals (§6.1).
func (x *slowTxn) Commit() error {
	if x.finished {
		panic("sontm: Commit on finished transaction")
	}
	if x.doomed {
		return x.abortDoomed()
	}
	if len(x.writeLog) == 0 {
		// Readers commit with their interval; record their reads so
		// future writers serialize after them.
		son := x.lo
		for line := range x.readSet {
			if rn := x.e.readNums.Slot(uint64(line)); son > *rn {
				*rn = son
			}
		}
		x.cleanup()
		x.e.Stats().Commits++
		x.e.Stats().ReadOnly++
		if x.e.Tracer != nil {
			x.e.Tracer.TxnCommit(x.id)
		}
		x.t.Tick(2)
		return nil
	}

	// Unlike the 2PL baseline, SONTM detects conflicts eagerly during
	// execution, so commits of different transactions have disjoint
	// effects and need no token: the commit's hashing, broadcast and
	// write-back overheads are accumulated and charged to the thread
	// without serializing other committers behind it.
	var cost uint64 = x.e.cfg.CommitOverhead

	// Serialize after every committed reader of the lines we write
	// (the read-history check); the scan cost grows with the number of
	// retained readsets, which tracks concurrency.
	for line := range x.writeSet {
		cost += x.e.cfg.BroadcastCost + x.e.cfg.HistoryCheckCost*uint64(len(x.e.activeSlow))
		x.raiseLo(x.e.readNums.Load(uint64(line))+1, line)
	}
	// Writers occupy the next sonGap multiple above their lower bound,
	// leaving room below for overlapping readers to serialize.
	son := (x.lo/sonGap + 1) * sonGap
	if x.doomed || son > x.hi {
		x.doomed = true
		return x.abortDoomed()
	}

	// Broadcast the write set: concurrent readers of these lines must
	// serialize before us; concurrent writers after us.
	for _, line := range x.writeOrder {
		for _, other := range x.e.activeSlow {
			if other == x || other.finished {
				continue
			}
			// A transaction that wrote the line must serialize
			// after us; one that read it must serialize before
			// us. A read-modify-write needs both and its
			// interval empties — exactly the Kmeans pattern the
			// paper notes CS cannot help with.
			if _, ok := other.writeSet[line]; ok {
				other.raiseLo(son+1, line)
			}
			if _, ok := other.readSet[line]; ok {
				other.clampHi(son-1, line)
			}
		}
	}

	// Write back and tag committed writes with the SON in the global
	// write-numbers hashtable.
	for a, v := range x.writeLog {
		x.e.Words.Store(mem.WordIndex(a), v)
	}
	for _, line := range x.writeOrder {
		cost += x.h.Access(line) + x.e.cfg.HashCost
		if wn := x.e.writeNums.Slot(uint64(line)); son > *wn {
			*wn = son
		}
		x.e.Caches.Publish(x.t.ID(), line)
	}
	for line := range x.readSet {
		if rn := x.e.readNums.Slot(uint64(line)); son > *rn {
			*rn = son
		}
	}
	x.cleanup()
	x.e.Stats().Commits++
	if x.e.Tracer != nil {
		x.e.Tracer.TxnCommit(x.id)
	}
	x.t.Tick(cost)
	return nil
}
