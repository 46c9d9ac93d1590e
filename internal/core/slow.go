package core

// The pre-aset access-set implementation, kept verbatim as the
// differential oracle for the signature-backed fast path (see
// Config.ReferenceSets). slowTxn tracks its write set, promoted reads and
// SSI read set in Go maps, and the engine tracks visible readers as
// map[mem.Line]map[*slowTxn]struct{}, exactly as the engine did before
// internal/aset existed. Results are bit-identical to the fast path; only
// simulator wall time changes. Do not "improve" this file: its value is
// being the unchanged original.

import (
	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/tm"
)

// slowState is the engine-side state of the reference implementation:
// per-thread recycled transaction objects and, under Serializable, the
// visible-reader table.
type slowState struct {
	lastTxn map[int]*slowTxn
	readers map[mem.Line]map[*slowTxn]struct{}
	// writers maps each line to its most recent committed writer, for
	// the read-side committed-pivot rule (see trackRead); the fast
	// path's epoch-stamped Engine.lastWriter table mirrors it.
	writers map[mem.Line]*slowTxn
}

func newSlowState(serializable bool) *slowState {
	s := &slowState{lastTxn: make(map[int]*slowTxn)}
	if serializable {
		s.readers = make(map[mem.Line]map[*slowTxn]struct{})
		s.writers = make(map[mem.Line]*slowTxn)
	}
	return s
}

// writeEntry buffers a transaction's stores to one cache line.
type writeEntry struct {
	mask  uint8
	words [mem.WordsPerLine]uint64
}

// slowTxn is one SI-TM transaction attempt under the reference map-based
// access tracking.
type slowTxn struct {
	e     *Engine
	t     *sched.Thread
	h     *cache.Hierarchy
	id    uint64
	start clock.Timestamp
	site  string

	writes     map[mem.Line]*writeEntry
	writeOrder []mem.Line
	// promotedLines are reads promoted into conflict detection (§5.1);
	// they are validated like writes but create no versions.
	// promotedOrder preserves first-promotion order so commit-time
	// cycle charging is deterministic.
	promotedLines map[mem.Line]struct{}
	promotedOrder []mem.Line

	// SSI-TM state (§5.2). The flags record rw-antidependency edges:
	// outFlag means this transaction read a line a concurrent
	// transaction (later) wrote (edge this -> other); inFlag means a
	// concurrent transaction read a line this transaction wrote (edge
	// other -> this). A transaction with both — a dangerous structure —
	// aborts. Read entries persist after commit (like SIREAD locks)
	// until no overlapping transaction remains, so committed pivots are
	// still detected.
	reads   map[mem.Line]struct{}
	inFlag  bool
	outFlag bool
	doomed  bool

	committed bool
	end       clock.Timestamp // end timestamp once committed

	finished bool
}

var _ tm.Txn = (*slowTxn)(nil)

// beginSlow is the reference-path tm.Engine.Begin. It stalls while any
// commit is in flight — the software rendering of the paper's starter
// stall (§4.2) — then takes a unique start timestamp, which creates the
// logical snapshot.
func (e *Engine) beginSlow(t *sched.Thread) tm.Txn {
	for e.clk.MustStall() {
		e.clk.Stalls++
		e.Stats().Stalls++
		t.Stall()
	}
	e.TxnSeq++
	if e.cfg.Serializable && e.TxnSeq%64 == 0 {
		e.pruneSSI()
	}
	var tx *slowTxn
	if old := e.slow.lastTxn[t.ID()]; old != nil && old.finished && !e.cfg.Serializable {
		// clear keeps the maps' grown capacity, so steady-state
		// transactions insert without rehashing.
		clear(old.writes)
		clear(old.promotedLines)
		*old = slowTxn{
			e:             e,
			t:             t,
			h:             old.h,
			id:            e.TxnSeq,
			start:         e.clk.Begin(),
			writes:        old.writes,
			writeOrder:    old.writeOrder[:0],
			promotedLines: old.promotedLines,
			promotedOrder: old.promotedOrder[:0],
		}
		tx = old
	} else {
		tx = &slowTxn{
			e:      e,
			t:      t,
			h:      e.Caches.Core(t.ID()),
			id:     e.TxnSeq,
			start:  e.clk.Begin(),
			writes: make(map[mem.Line]*writeEntry),
		}
		e.slow.lastTxn[t.ID()] = tx
	}
	e.active.Register(tx.start)
	if e.cfg.Serializable {
		tx.reads = make(map[mem.Line]struct{})
	}
	if e.Tracer != nil {
		e.Tracer.TxnBegin(tx.id, t.ID())
	}
	t.Tick(2) // atomic increment of the global timestamp counter
	return tx
}

// Site implements tm.Txn.
func (x *slowTxn) Site(s string) tm.Txn {
	x.site = s
	return x
}

// Fence, PromiseReads and ReserveReads implement tm.Txn: the reference
// path never batches, so its thread is always at a per-event scheduling
// point and publishes no slack to extend.
func (x *slowTxn) Fence()           {}
func (x *slowTxn) PromiseReads(int) {}
func (x *slowTxn) ReserveReads(int) {}

// Read implements tm.Txn: the most current version older than the start
// timestamp is returned (§4.2, TM READ), unless the transaction itself
// wrote the word.
func (x *slowTxn) Read(a mem.Addr) uint64 {
	// Most workloads never promote a site; the len guard keeps the
	// string-keyed map hash off the per-read hot path in that case.
	if len(x.e.promoted) != 0 && x.e.promoted[x.site] {
		return x.ReadPromoted(a)
	}
	return x.read(a)
}

func (x *slowTxn) read(a mem.Addr) uint64 {
	line := mem.LineOf(a)
	x.t.Tick(x.h.AccessVersioned(line))
	if x.e.Tracer != nil {
		x.e.Tracer.TxnRead(x.id, a, x.site)
	}
	if x.e.cfg.Serializable {
		x.trackRead(line)
	}
	if len(x.writes) != 0 {
		if w, ok := x.writes[line]; ok && w.mask&(1<<mem.WordOf(a)) != 0 {
			return w.words[mem.WordOf(a)]
		}
	}
	v, ok := x.e.mem.ReadWord(a, x.start)
	if !ok {
		// DropOldest policy discarded the version this snapshot
		// needs (§3.1): the transaction aborts on the read.
		x.abortInternal(tm.AbortCapacity, line)
	}
	return v
}

// ReadPromoted implements tm.Txn: the read participates in commit-time
// conflict detection like a write, but creates no data version (§5.1).
func (x *slowTxn) ReadPromoted(a mem.Addr) uint64 {
	if x.promotedLines == nil {
		x.promotedLines = make(map[mem.Line]struct{})
	}
	line := mem.LineOf(a)
	if _, ok := x.promotedLines[line]; !ok {
		x.promotedLines[line] = struct{}{}
		x.promotedOrder = append(x.promotedOrder, line)
	}
	return x.read(a)
}

// Write implements tm.Txn: the store is buffered in the write set and the
// line marked transactionally written (§4.2, TM WRITE); no coherency
// traffic is emitted under lazy conflict detection.
func (x *slowTxn) Write(a mem.Addr, v uint64) {
	line := mem.LineOf(a)
	x.t.Tick(x.h.Access(line)) // write into the private cache
	if x.e.Tracer != nil {
		x.e.Tracer.TxnWrite(x.id, a, x.site)
	}
	w, ok := x.writes[line]
	if !ok {
		w = &writeEntry{}
		x.writes[line] = w
		x.writeOrder = append(x.writeOrder, line)
	}
	w.mask |= 1 << mem.WordOf(a)
	w.words[mem.WordOf(a)] = v
}

// trackRead registers this transaction as a visible reader of line for
// SSI-TM's rw-antidependency detection. Reading a line that a concurrent
// transaction has already overwritten records an outgoing edge — and, if
// that overwrite came from a committed transaction that itself has an
// outgoing edge, completes a dangerous structure around a committed
// pivot, which only this reader can break by aborting (§5.2; the
// read-side dual of ssiWriterCheck's committed-pivot rule).
func (x *slowTxn) trackRead(line mem.Line) {
	x.checkDoom(line)
	if _, ok := x.reads[line]; !ok {
		x.reads[line] = struct{}{}
		rs := x.e.slow.readers[line]
		if rs == nil {
			rs = make(map[*slowTxn]struct{})
			x.e.slow.readers[line] = rs
		}
		rs[x] = struct{}{}
	}
	if x.e.mem.NewestTS(line) > x.start {
		x.outFlag = true
		if x.inFlag {
			x.abortInternal(tm.AbortSkew, line)
		}
		if w := x.e.slow.writers[line]; w != nil && w != x && w.committed && w.end > x.start {
			w.inFlag = true
			if w.outFlag {
				x.abortInternal(tm.AbortSkew, line)
			}
		}
	}
}

// checkDoom aborts a transaction that a committing writer marked dangerous.
func (x *slowTxn) checkDoom(line mem.Line) {
	if x.doomed {
		x.abortInternal(tm.AbortSkew, line)
	}
}

// release drops all engine-side state of the transaction. Aborted
// transactions leave the readers table immediately; committed SSI-TM
// transactions keep their read entries (like SIREAD locks) until pruneSSI
// finds no overlapping transaction.
func (x *slowTxn) release() {
	x.finished = true
	x.e.active.Deregister(x.start)
	if x.e.cfg.Serializable && !x.committed {
		x.dropReads()
	}
}

func (x *slowTxn) dropReads() {
	for line := range x.reads {
		delete(x.e.slow.readers[line], x)
		if len(x.e.slow.readers[line]) == 0 {
			delete(x.e.slow.readers, line)
		}
	}
}

// pruneSSI removes committed readers and writer records that no active
// transaction overlaps: the records it drops are exactly those every
// remaining check would skip, so pruning is invisible to the simulation.
func (e *Engine) pruneSSI() {
	oldest, any := e.active.OldestActive()
	for line, rs := range e.slow.readers {
		for r := range rs {
			if r.committed && (!any || r.end <= oldest) {
				delete(rs, r)
			}
		}
		if len(rs) == 0 {
			delete(e.slow.readers, line)
		}
	}
	for line, w := range e.slow.writers {
		if !any || w.end <= oldest {
			delete(e.slow.writers, line)
		}
	}
}

// abortInternal counts and signals an engine-initiated abort from inside
// Read/Write; it unwinds to tm.Atomic.
func (x *slowTxn) abortInternal(kind tm.AbortKind, line mem.Line) {
	x.release()
	x.e.Stats().Count(kind)
	if x.e.Tracer != nil {
		x.e.Tracer.TxnAbort(x.id)
	}
	tm.SignalAbort(kind, line)
}

// Abort implements tm.Txn: the write set is discarded; nothing was
// published, so rollback is trivial (§4.3).
func (x *slowTxn) Abort() {
	if x.finished {
		return
	}
	x.release()
	x.e.Stats().Count(tm.AbortExplicit)
	if x.e.Tracer != nil {
		x.e.Tracer.TxnAbort(x.id)
	}
	x.t.Tick(2)
}

// Commit implements tm.Txn (§4.2, TM COMMIT). Read-only transactions
// commit with zero overhead. Writers reserve an end timestamp, then write
// back each line: a line whose newest version is younger than the start
// timestamp is a write-write conflict and the transaction rolls back its
// optimistically created versions and aborts; otherwise a new version
// tagged with the end timestamp is installed. Validation is purely local —
// a timestamp comparison against memory state — with no broadcast.
func (x *slowTxn) Commit() error {
	if x.finished {
		panic("core: Commit on finished transaction")
	}
	// SSI-TM dangerous-structure checks accumulated during execution.
	if x.e.cfg.Serializable && (x.doomed || (x.inFlag && x.outFlag)) {
		return x.commitAbort(0, tm.AbortSkew)
	}
	if len(x.writes) == 0 && len(x.promotedLines) == 0 {
		// Read-only: no end timestamp, no checks (§4.2). Under
		// SSI-TM the read entries persist so later writers still see
		// the antidependencies this reader induced.
		x.committed = true
		x.end = x.e.clk.Now()
		x.release()
		x.e.Stats().Commits++
		x.e.Stats().ReadOnly++
		if x.e.Tracer != nil {
			x.e.Tracer.TxnCommit(x.id)
		}
		return nil
	}

	x.t.Tick(x.e.cfg.CommitOverhead)
	end := x.e.clk.ReserveEnd()

	// Deregister before installing so that version coalescing measures
	// only *other* transactions' snapshots (Figure 4: TX1's commit
	// coalesces across TX1's own start timestamp).
	x.e.active.Deregister(x.start)

	// Validate promoted reads: a newer version of a promoted line
	// means a concurrent writer committed — the write-skew repair turns
	// that into an abort (§5.1). This early pass catches committed
	// conflicts cheaply; because commits of different transactions
	// interleave in time, the promoted lines are validated again after
	// the installs below, which guarantees that of two transactions
	// whose writes invalidate each other's promoted reads, at least the
	// one that finishes validating last observes the other's versions.
	for _, line := range x.promotedOrder {
		if _, mine := x.writes[line]; mine {
			continue // validated atomically when the write installs
		}
		x.t.Tick(x.h.Access(line))
		if x.e.mem.NewestTS(line) > x.start {
			return x.commitAbortReserved(end, nil, line, tm.AbortSkew)
		}
	}

	var installed []installRec
	for _, line := range x.writeOrder {
		w := x.writes[line]
		x.t.Tick(x.h.Access(line)) // write the line back to the MVM
		base, ok := x.e.mem.ReadLine(line, x.start)
		if !ok {
			return x.commitAbortReserved(end, installed, line, tm.AbortCapacity)
		}
		mask := w.mask
		if x.e.cfg.WordGranularity {
			// §4.2 optimisation: drop silent stores (words written
			// back with their snapshot value) from the write mask;
			// they carry no effect and must not clobber concurrent
			// writers' words.
			mask = changedMask(w, &base)
		}
		if x.e.mem.NewestTS(line) > x.start {
			if !x.e.cfg.WordGranularity || x.trueConflict(line, mask, &base) {
				return x.commitAbortReserved(end, installed, line, tm.AbortWriteWrite)
			}
		}
		if x.e.cfg.WordGranularity {
			if mask == 0 {
				continue // fully silent write: nothing to install
			}
			// Merge atop the current newest contents so that
			// dismissed false-sharing conflicts keep the other
			// transaction's words.
			base = x.e.mem.NewestLine(line)
		}
		undo, err := x.e.mem.Install(line, end, base, mask, &w.words)
		if err != nil {
			return x.commitAbortReserved(end, installed, line, tm.AbortCapacity)
		}
		installed = append(installed, installRec{line: line, undo: undo})
	}

	// Revalidate promoted reads now that our versions are installed:
	// any concurrent commit that finished between the early pass and
	// here is visible as a newer version (see the comment above). Lines
	// this transaction itself wrote are excluded — their newest version
	// is our own install, and the write-write check already validated
	// them against the snapshot without an intervening yield.
	for _, line := range x.promotedOrder {
		if _, mine := x.writes[line]; mine {
			continue
		}
		if x.e.mem.NewestTS(line) > x.start {
			return x.commitAbortReserved(end, installed, line, tm.AbortSkew)
		}
	}

	// SSI-TM: writing lines that concurrent transactions have read
	// creates rw antidependencies reader->writer; set the flags and
	// abort any reader that becomes dangerous (§5.2).
	if x.e.cfg.Serializable {
		if err := x.ssiWriterCheck(end, installed); err != nil {
			return err
		}
		// Record this commit as the newest writer of its lines so later
		// readers of the overwritten versions can apply the read-side
		// committed-pivot rule (see trackRead).
		for _, line := range x.writeOrder {
			x.e.slow.writers[line] = x
		}
	}

	// Publish: invalidate the committed lines in other cores' private
	// caches so subsequent transactions fetch the new versions (§4.4).
	for _, line := range x.writeOrder {
		x.e.Caches.PublishVersioned(x.t.ID(), line)
	}
	x.finished = true
	x.committed = true
	x.end = end
	x.e.clk.CompleteEnd(end)
	x.e.Stats().Commits++
	if x.e.Tracer != nil {
		x.e.Tracer.TxnCommit(x.id)
	}
	x.t.WakeAll() // release starters stalled on the commit window
	x.t.Tick(2)
	return nil
}

// changedMask returns the subset of the write mask whose words actually
// differ from the transaction's snapshot. Words written back unmodified
// are silent stores (Lepak/Waliullah): executing or eliding them leaves
// the transaction's observable effect identical.
func changedMask(w *writeEntry, snap *[mem.WordsPerLine]uint64) uint8 {
	var m uint8
	for i := 0; i < mem.WordsPerLine; i++ {
		if w.mask&(1<<i) != 0 && w.words[i] != snap[i] {
			m |= 1 << i
		}
	}
	return m
}

// trueConflict implements the word-granularity §4.2 optimisation: a
// line-level conflict is real only when some word this transaction
// actually modified (mask, already silent-store-filtered) was also
// modified by the concurrent committer; otherwise the two transactions
// touched disjoint words of the line (false sharing) and both can keep
// their effects.
func (x *slowTxn) trueConflict(line mem.Line, mask uint8, snap *[mem.WordsPerLine]uint64) bool {
	newest := x.e.mem.NewestLine(line)
	for i := 0; i < mem.WordsPerLine; i++ {
		if mask&(1<<i) == 0 {
			continue
		}
		if newest[i] != snap[i] {
			return true // both modified word i: a true conflict
		}
	}
	return false
}

// ssiWriterCheck records rw antidependencies from concurrent visible
// readers of the lines this transaction is committing (§5.2). An active
// reader that now has both flags is doomed; a committed concurrent reader
// that already had an incoming edge is a pivot this transaction cannot
// serialize around, so this transaction aborts.
func (x *slowTxn) ssiWriterCheck(end clock.Timestamp, installed []installRec) error {
	// Flags are applied to every concurrent reader of every written
	// line before the dangerous-structure verdict, so the outcome does
	// not depend on map iteration order.
	abort := false
	var abortLine mem.Line
	for _, line := range x.writeOrder {
		for r := range x.e.slow.readers[line] {
			if r == x {
				continue
			}
			if r.committed {
				if r.end <= x.start {
					continue // serialized before us: no edge
				}
				// rw edge r -> x with r committed: if r also
				// had an incoming edge it is a committed pivot
				// this transaction cannot serialize around.
				x.inFlag = true
				if r.inFlag && !abort {
					abort, abortLine = true, line
				}
				continue
			}
			if r.finished {
				continue // aborted reader
			}
			// rw edge r -> x between active transactions.
			r.outFlag = true
			if r.inFlag {
				r.doomed = true
			}
			x.inFlag = true
		}
	}
	if abort || (x.inFlag && x.outFlag) {
		return x.commitAbortReserved(end, installed, abortLine, tm.AbortSkew)
	}
	return nil
}

// commitAbortReserved rolls back optimistic installs, retires the end
// reservation, and returns the abort error. The transaction iterates over
// its write set and removes all written lines from the MVM (§4.2).
func (x *slowTxn) commitAbortReserved(end clock.Timestamp, installed []installRec, line mem.Line, kind tm.AbortKind) error {
	for i := len(installed) - 1; i >= 0; i-- {
		x.t.Tick(x.h.Access(installed[i].line))
		x.e.mem.Revert(installed[i].line, end, installed[i].undo)
	}
	x.e.clk.CompleteEnd(end)
	x.finishAbort(kind)
	x.t.WakeAll()
	return &tm.AbortError{Kind: kind, Line: line}
}

// commitAbort aborts before an end timestamp was reserved.
func (x *slowTxn) commitAbort(line mem.Line, kind tm.AbortKind) error {
	x.e.active.Deregister(x.start)
	x.finishAbort(kind)
	return &tm.AbortError{Kind: kind, Line: line}
}

func (x *slowTxn) finishAbort(kind tm.AbortKind) {
	x.finished = true
	if x.e.cfg.Serializable {
		x.dropReads()
	}
	x.e.Stats().Count(kind)
	if x.e.Tracer != nil {
		x.e.Tracer.TxnAbort(x.id)
	}
}
