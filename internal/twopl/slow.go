package twopl

// The pre-aset access-set implementation, kept verbatim as the
// differential oracle for the signature-backed fast path (see
// Config.ReferenceSets). slowTxn tracks its write log and write set in Go
// maps, and each line's holders in a map[*slowTxn]struct{}, exactly as
// the engine did before internal/aset existed. Results are bit-identical
// to the fast path; only simulator wall time changes. Do not "improve"
// this file: its value is being the unchanged original.

import (
	"repro/internal/cache"
	"repro/internal/eager"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/tm"
)

// slowLineState tracks which active transactions hold a line
// transactionally.
type slowLineState struct {
	writer  *slowTxn
	readers map[*slowTxn]struct{}
}

func (e *Engine) stateSlow(l mem.Line) *slowLineState {
	sp := e.linesSlow.Slot(uint64(l))
	if *sp == nil {
		*sp = &slowLineState{readers: make(map[*slowTxn]struct{})}
	}
	return *sp
}

// slowTxn is one 2PL transaction attempt under the reference map-based
// access tracking.
type slowTxn struct {
	e  *Engine
	t  *sched.Thread
	h  *cache.Hierarchy
	id uint64

	// readLines lists the lines this transaction holds in shared mode,
	// each exactly once (the insert is guarded by st.readers
	// membership, which doubles as the dedup set — one map operation
	// per read instead of the two a separate read-set map cost).
	readLines []mem.Line
	// lastRead memoises the line of the previous Read: membership in
	// st.readers is idempotent and never revoked mid-transaction, so a
	// repeat read of the same line (sequential word scans hit the same
	// line eight times) can skip the map probe entirely.
	lastRead mem.Line
	writeLog map[mem.Addr]uint64
	writeSet map[mem.Line]struct{}
	// writeOrder preserves first-write order so commit-time cycle
	// charging is deterministic (map iteration is not).
	writeOrder []mem.Line

	doomed   bool
	doomKind tm.AbortKind
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
		clear(old.writeLog)
		clear(old.writeSet)
		*old = slowTxn{
			e: e, t: t, h: old.h, id: e.TxnSeq,
			readLines:  old.readLines[:0],
			lastRead:   eager.NoLine,
			writeLog:   old.writeLog,
			writeSet:   old.writeSet,
			writeOrder: old.writeOrder[:0],
		}
		tx = old
	} else {
		tx = &slowTxn{
			e: e, t: t, h: e.Caches.Core(t.ID()), id: e.TxnSeq,
			lastRead: eager.NoLine,
			writeLog: make(map[mem.Addr]uint64),
			writeSet: make(map[mem.Line]struct{}),
		}
		e.lastTxnSlow[t.ID()] = tx
	}
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

// doom marks a victim transaction aborted; the requester always wins.
func (x *slowTxn) doom(kind tm.AbortKind, line mem.Line) {
	if !x.doomed {
		x.doomed = true
		x.doomKind = kind
		x.doomLine = line
	}
}

// checkDoom unwinds the transaction (via the tm abort signal) if a
// requester doomed it; used on the Read/Write paths.
func (x *slowTxn) checkDoom() {
	if !x.doomed {
		return
	}
	x.abortDoomed()
	tm.SignalAbort(x.doomKind, x.doomLine)
}

// abortDoomed finalises a doomed transaction and returns its abort error;
// used on the Commit path, which reports aborts as error values.
func (x *slowTxn) abortDoomed() error {
	x.cleanup()
	x.e.Stats().Count(x.doomKind)
	if x.e.Tracer != nil {
		x.e.Tracer.TxnAbort(x.id)
	}
	return &tm.AbortError{Kind: x.doomKind, Line: x.doomLine}
}

// maybeInterrupt injects a periodic interrupt: a cache-buffered
// transaction cannot survive the context switch and aborts (§4.3).
func (x *slowTxn) maybeInterrupt(line mem.Line) {
	if x.e.cfg.InterruptPeriod <= 0 {
		return
	}
	x.e.accessCount++
	if x.e.accessCount%x.e.cfg.InterruptPeriod != 0 {
		return
	}
	x.t.Tick(x.e.cfg.InterruptCost)
	x.cleanup()
	x.e.Stats().Count(tm.AbortInterrupt)
	if x.e.Tracer != nil {
		x.e.Tracer.TxnAbort(x.id)
	}
	tm.SignalAbort(tm.AbortInterrupt, line)
}

// Read implements tm.Txn: a get-shared broadcast aborts any conflicting
// writer ("requester wins"), then the line joins the read set.
func (x *slowTxn) Read(a mem.Addr) uint64 {
	x.checkDoom()
	line := mem.LineOf(a)
	x.maybeInterrupt(line)
	x.t.Tick(x.h.Access(line) + x.e.cfg.BroadcastCost)
	if x.e.Tracer != nil {
		x.e.Tracer.TxnRead(x.id, a, x.site)
	}
	st := x.e.stateSlow(line)
	if st.writer != nil && st.writer != x {
		st.writer.doom(tm.AbortReadWrite, line)
	}
	if line != x.lastRead {
		// One map operation instead of probe-then-insert: the length
		// delta reveals whether the assignment was a first read.
		n := len(st.readers)
		st.readers[x] = struct{}{}
		if len(st.readers) != n {
			x.readLines = append(x.readLines, line)
		}
		x.lastRead = line
	}
	if len(x.writeLog) != 0 {
		if v, ok := x.writeLog[a]; ok {
			return v
		}
	}
	return x.e.Words.Load(mem.WordIndex(a))
}

// ReadPromoted implements tm.Txn; under 2PL it is an ordinary read.
func (x *slowTxn) ReadPromoted(a mem.Addr) uint64 { return x.Read(a) }

// Write implements tm.Txn: a get-exclusive broadcast aborts every other
// reader and writer of the line, then the store is logged.
func (x *slowTxn) Write(a mem.Addr, v uint64) {
	x.checkDoom()
	line := mem.LineOf(a)
	x.maybeInterrupt(line)
	x.t.Tick(x.h.Access(line) + x.e.cfg.BroadcastCost)
	if x.e.Tracer != nil {
		x.e.Tracer.TxnWrite(x.id, a, x.site)
	}
	// Version-buffer overflow (§4.3): the L1-resident speculative state
	// cannot exceed the buffer; the transaction aborts.
	if n := x.e.cfg.VersionBufferLines; n > 0 {
		if _, ok := x.writeSet[line]; !ok && len(x.writeSet) >= n {
			x.cleanup()
			x.e.Stats().Count(tm.AbortCapacity)
			if x.e.Tracer != nil {
				x.e.Tracer.TxnAbort(x.id)
			}
			tm.SignalAbort(tm.AbortCapacity, line)
		}
	}
	st := x.e.stateSlow(line)
	if st.writer != nil && st.writer != x {
		st.writer.doom(tm.AbortWriteWrite, line)
	}
	for r := range st.readers {
		if r != x {
			r.doom(tm.AbortReadWrite, line)
		}
	}
	st.writer = x
	// One map operation instead of probe-then-insert: the length delta
	// reveals whether the assignment was a first write.
	n := len(x.writeSet)
	x.writeSet[line] = struct{}{}
	if len(x.writeSet) != n {
		x.writeOrder = append(x.writeOrder, line)
	}
	x.writeLog[a] = v
}

// cleanup removes the transaction from every line state.
func (x *slowTxn) cleanup() {
	for _, line := range x.readLines {
		if st := x.e.linesSlow.Load(uint64(line)); st != nil {
			delete(st.readers, x)
		}
	}
	for line := range x.writeSet {
		if st := x.e.linesSlow.Load(uint64(line)); st != nil && st.writer == x {
			st.writer = nil
		}
	}
	x.finished = true
}

// Abort implements tm.Txn: read and write logs are discarded and the
// transaction restarts in software (§6.1).
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

// Commit implements tm.Txn: the thread obtains the commit token, iterates
// over its write log and commits the speculative writes to main memory
// (§6.1).
func (x *slowTxn) Commit() error {
	if x.finished {
		panic("twopl: Commit on finished transaction")
	}
	if x.doomed {
		return x.abortDoomed()
	}
	if len(x.writeLog) == 0 {
		x.cleanup()
		x.e.Stats().Commits++
		x.e.Stats().ReadOnly++
		if x.e.Tracer != nil {
			x.e.Tracer.TxnCommit(x.id)
		}
		x.t.Tick(2)
		return nil
	}
	for x.e.commitBusy {
		x.e.Stats().Stalls++
		x.t.Stall()
		if x.doomed {
			return x.abortDoomed()
		}
	}
	x.e.commitBusy = true
	x.t.Tick(x.e.cfg.CommitOverhead)
	if x.doomed { // a requester may have doomed us while ticking
		x.e.commitBusy = false
		x.t.WakeAll()
		return x.abortDoomed()
	}
	for a, v := range x.writeLog {
		x.e.Words.Store(mem.WordIndex(a), v)
	}
	for _, line := range x.writeOrder {
		x.t.Tick(x.h.Access(line))
		x.e.Caches.Publish(x.t.ID(), line)
	}
	x.e.commitBusy = false
	x.cleanup()
	x.e.Stats().Commits++
	if x.e.Tracer != nil {
		x.e.Tracer.TxnCommit(x.id)
	}
	x.t.WakeAll()
	return nil
}
