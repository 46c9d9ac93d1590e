// Package core implements the paper's primary contribution: SI-TM, a
// hardware transactional memory based on snapshot isolation (§4), and its
// serializable extension SSI-TM (§5.2).
//
// An SI-TM transaction obtains a unique start timestamp at TM_BEGIN, reads
// every location from the multiversioned memory snapshot at that timestamp,
// buffers writes in a private write set, and at TM_COMMIT validates only
// for write-write conflicts: for each written line, if the newest version
// in the MVM is younger than the transaction's start timestamp, another
// overlapping transaction committed a write to the same line and the
// transaction aborts. Read-write conflicts never abort a transaction, and
// read-only transactions commit with zero overhead.
//
// SI-TM shares its transaction lifecycle with the baselines: Engine and
// txn embed internal/eager's Base and Attempt by value, which hold the
// memory system (thread i runs on core i of the cache.System, the Table
// 1 machine), stats, tracer, batching switch, per-thread recycling, the
// write log and the outcome accounting. This package keeps what is SI-TM's
// own: the MVM, the clock and active-snapshot table, promoted sites,
// SSI-TM's reader and last-writer tables, the commit-window stall and the
// read, Write and Commit paths (DESIGN.md "One transaction lifecycle").
// Reads charge versioned accesses, and a writer commit publishes each
// installed line to the other cores (System.PublishVersioned, §4.4).
//
// Access tracking uses the signature-backed tables of internal/aset
// (write sets, promoted-read sets, and epoch-stamped visible-reader
// records), mirroring the fixed hardware set structures of real HTMs.
// Config.ReferenceSets runs every one of those tables in aset.LineMap's
// map-backed reference mode, the differential oracle for the open
// addressing and the signatures.
package core

import (
	"fmt"

	"repro/internal/aset"
	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/eager"
	"repro/internal/mem"
	"repro/internal/mvm"
	"repro/internal/sched"
	"repro/internal/tm"
)

// Config selects the SI-TM options evaluated in the paper.
type Config struct {
	// MVM configures the multiversioned memory (§3.1 policies).
	MVM mvm.Config
	// Cache configures the simulated memory hierarchy (Table 1).
	Cache cache.Config
	// WordGranularity enables the §4.2 optimisation: on a line-level
	// write-write conflict, compare the conflicting words against the
	// snapshot to dismiss false-sharing and silent-store conflicts.
	// The paper's evaluation keeps this off ("we perform conflict
	// detection on a per cache line granularity ... a lower bound").
	WordGranularity bool
	// Serializable enables SSI-TM (§5.2): read sets are tracked, rw
	// antidependencies set per-transaction in/out flags, and a
	// transaction with both flags (a dangerous structure) aborts.
	Serializable bool
	// MaxInflight bounds concurrent commits (the hardware Δ);
	// 0 = unbounded.
	MaxInflight int
	// CommitOverhead is the fixed cycle cost of obtaining an end
	// timestamp and initiating the commit.
	CommitOverhead uint64
	// ReferenceSets runs the write logs and SI-TM's promoted, read,
	// reader and last-writer tables in aset.LineMap's map-backed
	// reference mode, the differential oracle for the open addressing and
	// the signatures. Results are bit-identical to the default; only
	// simulator wall time changes.
	ReferenceSets bool
	// ReferenceStore backs the presence filters (and, via MVM.
	// ReferenceStore, the version table) with the retained dense mem
	// store instead of the paged one, the differential oracle for the
	// paged backing. Results are bit-identical to the default; only
	// memory footprint changes.
	ReferenceStore bool
}

// DefaultConfig mirrors the evaluated system: 4 versions with
// abort-on-fifth, coalescing, line-granularity conflicts, Table-1 caches.
func DefaultConfig() Config {
	return Config{
		MVM:            mvm.DefaultConfig(),
		Cache:          cache.DefaultConfig(),
		CommitOverhead: 10,
	}
}

// Engine is the SI-TM transactional memory. The embedded eager.Base
// holds the memory system, stats, tracer, batching switch and per-thread
// recycling. Batching is admitted for plain SI-TM with the fast cache
// model: SSI-TM is excluded — its read paths mutate shared reader tables
// and its read-only commits take order-sensitive clock reads — as is the
// reference cache, whose hits rewrite observable state.
type Engine struct {
	eager.Base
	cfg    Config
	clk    *clock.Clock
	active *clock.ActiveTable
	mem    *mvm.Memory

	promoted map[string]bool

	// readers tracks, per line, the epoch-stamped visible-reader records
	// of SSI-TM transactions (visible readers exist only under
	// Serializable; plain SI-TM supports invisible readers, §4.2). A
	// record is live while liveReader accepts it; stale records are
	// swept out lazily by the CompactAdd on the next reader of the line.
	readers    aset.LineMap[aset.Readers[*txn]]
	liveReader func(*txn, uint64) bool

	// lastWriter tracks, per line, the most recent committed writer
	// (Serializable only; epoch-stamped like reader records). It serves
	// the read-side half of the dangerous-structure rule: a reader that
	// observes an overwritten line creates the rw edge reader->writer
	// *after* the writer committed, where ssiWriterCheck can no longer
	// see it. Without this table the structure T2 -rw-> T1 -rw-> T0
	// completed by T2's read of T1's overwrite goes undetected and the
	// read-only anomaly (Fekete et al.) commits — found by model
	// checking the read-only litmus, see DESIGN.md "Model checking".
	// Records are never swept: a record whose writer's end precedes
	// every active snapshot simply fails the concurrency test, and
	// recycling bumps the epoch exactly as for reader records.
	lastWriter aset.LineMap[writerRec]
}

// New creates an SI-TM engine.
func New(cfg Config) *Engine {
	clk := clock.New()
	clk.MaxInflight = cfg.MaxInflight
	active := clock.NewActiveTable()
	e := &Engine{
		cfg:      cfg,
		clk:      clk,
		active:   active,
		mem:      mvm.New(cfg.MVM, clk, active),
		promoted: make(map[string]bool),
	}
	name := "SI-TM"
	if cfg.Serializable {
		name = "SSI-TM"
	}
	// The read-phase slack backs the horizon-batched path: from any
	// parked position outside the writer-commit critical section, this
	// thread's next horizon-relevant effect (install, invalidation,
	// presence drain, revert) sits behind the commit-entry
	// Tick(CommitOverhead) plus at least one charged line access, so it
	// lands at least CommitOverhead + L1Latency cycles past the parked
	// key. Commit zeroes the slack before entering the critical section.
	// Each promised read (tm.Txn.PromiseReads) adds L1Latency, the
	// smallest read charge; no peer dooms an SI-TM reader, so nothing
	// revokes a promise.
	e.Init(name, cfg.Cache, cfg.ReferenceStore, cfg.ReferenceSets, cfg.CommitOverhead+cfg.Cache.L1Latency, cfg.Cache.L1Latency,
		!cfg.Serializable && !cfg.Cache.Reference)
	e.liveReader = e.readerLive
	if cfg.ReferenceSets {
		e.readers.SetReference()
		e.lastWriter.SetReference()
	}
	return e
}

// Promote implements tm.Engine: reads issued under the given site label
// are inserted into the write set for conflict detection without creating
// data versions (§5.1).
func (e *Engine) Promote(site string) { e.promoted[site] = true }

// MVM exposes the engine's multiversioned memory for measurement
// (Table 2 / Appendix A statistics).
func (e *Engine) MVM() *mvm.Memory { return e.mem }

// Clock exposes the engine's global timestamp clock.
func (e *Engine) Clock() *clock.Clock { return e.clk }

// AuditAccessSets verifies at quiescence that no transaction is active
// and no commit in flight, that every MVM version list is well formed
// (mvm.Memory.AuditVersions), and that no live access-set state survives
// outside a running transaction: every recycled transaction object holds
// empty sets (eager.Base.Audit), and every reader list compacts to
// nothing. It reports the lowest offending thread. tmtest calls it after
// each conformance cell.
func (e *Engine) AuditAccessSets() error {
	if n := e.active.Len(); n != 0 {
		return fmt.Errorf("%s: %d transactions active after quiescence", e.Name(), n)
	}
	if n := e.clk.InFlight(); n != 0 {
		return fmt.Errorf("%s: %d commits in flight after quiescence", e.Name(), n)
	}
	if err := e.mem.AuditVersions(); err != nil {
		return fmt.Errorf("%s: %v after quiescence", e.Name(), err)
	}
	if err := e.Audit(); err != nil {
		return err
	}
	for i := 0; i < e.readers.Len(); i++ {
		line, rs := e.readers.At(i)
		rs.Compact(e.liveReader)
		if n := rs.Len(); n != 0 {
			return fmt.Errorf("%s: line %d holds %d live reader records after quiescence", e.Name(), line, n)
		}
	}
	return nil
}

// NonTxRead implements tm.Engine: non-transactional reads return the most
// current version (§3).
//
//sitm:allow(yieldlint) workload setup/verification API, called before threads start or after they quiesce
func (e *Engine) NonTxRead(a mem.Addr) uint64 { return e.mem.NonTxReadWord(a) }

// NonTxWrite implements tm.Engine: non-transactional writes modify the
// most current version in place (§3).
//
//sitm:allow(yieldlint) workload setup/verification API, called before threads start or after they quiesce
func (e *Engine) NonTxWrite(a mem.Addr, v uint64) { e.mem.NonTxWriteWord(a, v) }

// NonTxScan implements tm.Engine: the non-zero words of the newest
// versions of the lines the MVM has allocated (mvm.Memory.NonTxScan).
//
//sitm:allow(yieldlint) workload setup/verification API, called before threads start or after they quiesce
func (e *Engine) NonTxScan(lo, hi mem.Addr, f func(a mem.Addr, v uint64)) { e.mem.NonTxScan(lo, hi, f) }

// installRec remembers an optimistic install for rollback.
type installRec struct {
	line mem.Line
	undo mvm.Undo
}

// txn is one SI-TM transaction attempt. The embedded eager.Attempt
// holds the thread, hierarchy, write log (first-write order) and the
// outcome accounting.
type txn struct {
	eager.Attempt
	e     *Engine
	start clock.Timestamp
	// epoch distinguishes incarnations of a recycled transaction object:
	// reader records carry the epoch they were made under, so recycling
	// invalidates all of an object's records without walking any table.
	epoch uint64

	// promoted are reads promoted into conflict detection (§5.1); they
	// are validated like writes but create no versions. Iteration order
	// is first-promotion order, so commit-time cycle charging is
	// deterministic.
	promoted aset.LineMap[struct{}]

	// SSI-TM state (§5.2). The flags record rw-antidependency edges:
	// outFlag means this transaction read a line a concurrent
	// transaction (later) wrote (edge this -> other); inFlag means a
	// concurrent transaction read a line this transaction wrote (edge
	// other -> this). A transaction with both — a dangerous structure —
	// aborts. inFlag is set only on a committer, by its own
	// ssiWriterCheck, or on a committed writer, by trackRead's read-side
	// rule, so a transaction still reading never has it and those two
	// checks decide every dangerous structure. Reader records persist
	// after commit (like SIREAD locks) until no overlapping transaction
	// remains, so committed pivots are still detected; reads dedups this
	// transaction's own registrations.
	reads aset.LineMap[struct{}]
	// hadReads records that this incarnation registered at least one
	// visible-reader record; canRecycle consults it after reads has been
	// Reset.
	hadReads bool
	inFlag   bool
	outFlag  bool

	committed bool
	end       clock.Timestamp // end timestamp once committed

	// installBuf is the reused commit-time install record buffer.
	installBuf []installRec
}

var _ tm.Txn = (*txn)(nil)

// writerRec is an epoch-stamped committed-writer record (see
// Engine.lastWriter); a mismatched epoch means the object was recycled
// and the record is dead, exactly as for reader records.
type writerRec struct {
	tx    *txn
	epoch uint64
}

// Begin implements tm.Engine. It stalls while any commit is in flight —
// the software rendering of the paper's starter stall (§4.2) — then takes
// a unique start timestamp, which creates the logical snapshot.
func (e *Engine) Begin(t *sched.Thread) tm.Txn {
	for e.clk.MustStall() {
		e.clk.Stalls++
		e.Stats().Stalls++
		t.Stall()
	}
	// A recycled object's sets were Reset when it finished, keeping their
	// grown capacity; bumping the epoch retires any reader records the
	// previous incarnation left behind.
	tx, _ := e.Recycle(t.ID()).(*txn)
	if tx == nil || !e.canRecycle(tx) {
		tx = &txn{e: e}
		if e.cfg.ReferenceSets {
			tx.promoted.SetReference()
			tx.reads.SetReference()
		}
	}
	tx.start = e.clk.Begin()
	tx.epoch++
	tx.hadReads, tx.inFlag, tx.outFlag, tx.committed = false, false, false, false
	tx.end = 0
	e.active.Register(tx.start)
	e.Open(&tx.Attempt, tx, t) // charges the timestamp-counter increment
	return tx
}

// canRecycle reports whether old's object may be reused for a new
// transaction. Plain SI-TM always recycles; under Serializable a
// committed transaction's reader records must stay valid (SIREAD
// semantics) while any active transaction overlaps it, so its object is
// reusable only once none does — the same condition under which the
// records are dead for every future writer check. A committed
// transaction that registered no reader records (write-only) left no
// epoch-stamped state behind and is always reusable.
func (e *Engine) canRecycle(old *txn) bool {
	if !e.cfg.Serializable || !old.committed || !old.hadReads {
		return true
	}
	oldest, any := e.active.OldestActive()
	return !any || old.end <= oldest
}

// readerLive is the liveness predicate of the visible-reader records: a
// record is live while its object has not been recycled and the
// transaction is either still active or committed with a possible
// overlapper. Records readerLive rejects are exactly those the writer
// check would skip, so sweeping them is invisible to the simulation.
func (e *Engine) readerLive(r *txn, epoch uint64) bool {
	if r.epoch != epoch || (r.Finished && !r.committed) {
		return false
	}
	if !r.Finished {
		return true
	}
	oldest, any := e.active.OldestActive()
	return any && r.end > oldest
}

// Read implements tm.Txn: the most current version older than the start
// timestamp is returned (§4.2, TM READ), unless the transaction itself
// wrote the word.
func (x *txn) Read(a mem.Addr) uint64 {
	// Most workloads never promote a site; the len guard keeps the
	// string-keyed map hash off the per-read hot path in that case.
	if len(x.e.promoted) != 0 && x.e.promoted[x.Label] {
		return x.ReadPromoted(a)
	}
	return x.read(a)
}

func (x *txn) read(a mem.Addr) uint64 {
	x.SpendRead()
	line := mem.LineOf(a)
	if lat, ok := x.privateHit(line); ok {
		// Certified non-interacting: a private L1/L2 hit touches only
		// this core's caches, which other cores write only through
		// commit invalidations beyond the horizon, so this event may run
		// inside a batched quantum past the inline bound (DESIGN.md
		// "Horizon batching").
		// The snapshot read below is pinned too — any concurrent install
		// sits behind the horizon.
		x.Thread.TickHinted(lat)
	} else {
		// An L2 miss reaches the shared L3, the translation cache and
		// the MVM partition, so it must happen at the per-event point.
		x.Thread.Fence()
		x.Thread.Tick(x.Hier.AccessVersioned(line))
	}
	x.TraceRead(a)
	if x.e.cfg.Serializable {
		x.trackRead(line)
	}
	if v, ok := x.Writes.Load(a); ok {
		return v
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
func (x *txn) ReadPromoted(a mem.Addr) uint64 {
	x.promoted.Put(mem.LineOf(a))
	return x.read(a)
}

// Write implements tm.Txn: the store is buffered in the write set and the
// line marked transactionally written (§4.2, TM WRITE); no coherency
// traffic is emitted under lazy conflict detection.
func (x *txn) Write(a mem.Addr, v uint64) {
	x.KeepPromise("Write")
	line := mem.LineOf(a)
	if lat, ok := x.privateHit(line); ok {
		// Same certification as read: a private L1/L2 hit plus the local
		// write-set store interacts with nothing inside the horizon.
		x.Thread.TickHinted(lat)
	} else {
		x.Thread.Fence()
		x.Thread.Tick(x.Hier.Access(line)) // write into the private cache
	}
	x.TraceWrite(a)
	x.Writes.Store(a, v)
}

// privateHit performs the access to line when horizon batching is on and
// this core's private caches serve it (cache.Hierarchy.AccessPrivate; an
// L1 or L2 hit costs the same plain or versioned). It reports false, and
// touches nothing, otherwise.
func (x *txn) privateHit(line mem.Line) (lat uint64, ok bool) {
	if x.e.Batch {
		lat, ok = x.Hier.AccessPrivate(line)
	}
	return lat, ok
}

// trackRead registers this transaction as a visible reader of line for
// SSI-TM's rw-antidependency detection. Reading a line that a concurrent
// transaction has already overwritten records an outgoing edge — and, if
// that overwrite came from a committed transaction that itself has an
// outgoing edge, completes a dangerous structure around a committed
// pivot, which only this reader can break by aborting (§5.2; the
// read-side dual of ssiWriterCheck's committed-pivot rule).
func (x *txn) trackRead(line mem.Line) {
	if _, added := x.reads.Put(line); added {
		x.hadReads = true
		rs, _ := x.e.readers.Put(line)
		rs.CompactAdd(x, x.epoch, x.e.liveReader)
	}
	if x.e.mem.NewestTS(line) > x.start {
		x.outFlag = true
		if rec, ok := x.e.lastWriter.Get(line); ok {
			w := rec.tx
			if w != x && w.epoch == rec.epoch && w.committed && w.end > x.start {
				w.inFlag = true
				if w.outFlag {
					x.abortInternal(tm.AbortSkew, line)
				}
			}
		}
	}
}

// resetAccessSets empties SI-TM's own sets in O(touched), keeping
// capacity for the next incarnation; the write log is eager.Attempt's.
// Reader records are not touched: they live in the engine table and
// expire via epoch/liveness instead.
func (x *txn) resetAccessSets() {
	x.promoted.Reset()
	x.reads.Reset()
	for i := range x.installBuf {
		x.installBuf[i] = installRec{}
	}
	x.installBuf = x.installBuf[:0]
}

// release drops the transaction's snapshot and local sets ahead of its
// outcome (eager.Attempt's Aborted or Committed). A committed SSI-TM
// transaction's reader records stay live (like SIREAD locks) until no
// overlapping transaction remains, at which point readerLive retires them
// lazily.
func (x *txn) release() {
	x.e.active.Deregister(x.start)
	x.resetAccessSets()
}

// abortInternal counts and signals an engine-initiated abort from inside
// Read/Write; it unwinds to tm.Atomic.
func (x *txn) abortInternal(kind tm.AbortKind, line mem.Line) {
	x.release()
	x.Aborted(kind)
	tm.SignalAbort(kind, line)
}

// Abort implements tm.Txn: the write set is discarded; nothing was
// published, so rollback is trivial (§4.3).
func (x *txn) Abort() {
	x.KeepPromise("Abort")
	if !x.Finished {
		x.release()
		x.Aborted(tm.AbortExplicit)
		x.Thread.Tick(2)
	}
}

// Leaks reports access-set state a finished attempt kept (see
// eager.Base.Audit).
func (x *txn) Leaks() error {
	switch {
	case x.promoted.Len() != 0:
		return fmt.Errorf("leaked %d promoted lines", x.promoted.Len())
	case x.reads.Len() != 0:
		return fmt.Errorf("leaked %d read-set lines", x.reads.Len())
	case len(x.installBuf) != 0:
		return fmt.Errorf("leaked %d install records", len(x.installBuf))
	}
	return nil
}

// Commit implements tm.Txn (§4.2, TM COMMIT). Read-only transactions
// commit with zero overhead. Writers reserve an end timestamp, then write
// back each line: a line whose newest version is younger than the start
// timestamp is a write-write conflict and the transaction rolls back its
// optimistically created versions and aborts; otherwise a new version
// tagged with the end timestamp is installed. Validation is purely local —
// a timestamp comparison against memory state — with no broadcast.
func (x *txn) Commit() error {
	if x.Finished {
		panic("core: Commit on finished transaction")
	}
	x.KeepPromise("Commit")
	if x.Writes.Len() == 0 && x.promoted.Len() == 0 {
		// Read-only: no end timestamp, no checks (§4.2). Under
		// SSI-TM the reader records persist so later writers still see
		// the antidependencies this reader induced. The clock read is
		// order-sensitive, so end any batched quantum first.
		x.Thread.Fence()
		x.committed = true
		x.end = x.e.clk.Now()
		x.release()
		x.Committed(true)
		return nil
	}

	// Entering the writer-commit critical section: installs and the
	// publish follow, so the published slack
	// must drop to zero before the commit-overhead charge (a batching
	// thread reading the old slack across this Tick's yield would admit
	// events the install below could invalidate). Restored on every exit.
	x.Thread.SetSlack(0)
	x.Thread.Tick(x.e.cfg.CommitOverhead)
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
	for _, line := range x.promoted.Lines() {
		if x.Writes.Has(line) {
			continue // validated atomically when the write installs
		}
		x.Thread.Tick(x.Hier.Access(line))
		if x.e.mem.NewestTS(line) > x.start {
			return x.commitAbortReserved(end, line, tm.AbortSkew)
		}
	}

	for i := 0; i < x.Writes.Len(); i++ {
		line, w := x.Writes.At(i)
		x.Thread.Tick(x.Hier.Access(line)) // write the line back to the MVM
		base, ok := x.e.mem.ReadLine(line, x.start)
		if !ok {
			return x.commitAbortReserved(end, line, tm.AbortCapacity)
		}
		mask := w.Mask
		if x.e.cfg.WordGranularity {
			// §4.2 optimisation: drop silent stores (words written
			// back with their snapshot value) from the write mask;
			// they carry no effect and must not clobber concurrent
			// writers' words.
			mask = changedMaskWords(w.Mask, &w.Words, &base)
		}
		if x.e.mem.NewestTS(line) > x.start {
			if !x.e.cfg.WordGranularity || x.trueConflict(line, mask, &base) {
				return x.commitAbortReserved(end, line, tm.AbortWriteWrite)
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
		x.Thread.Interact() // install: audited horizon-relevant effect
		undo, err := x.e.mem.Install(line, end, base, mask, &w.Words)
		if err != nil {
			return x.commitAbortReserved(end, line, tm.AbortCapacity)
		}
		x.installBuf = append(x.installBuf, installRec{line: line, undo: undo})
	}

	// Revalidate promoted reads now that our versions are installed:
	// any concurrent commit that finished between the early pass and
	// here is visible as a newer version (see the comment above). Lines
	// this transaction itself wrote are excluded — their newest version
	// is our own install, and the write-write check already validated
	// them against the snapshot without an intervening yield.
	for _, line := range x.promoted.Lines() {
		if x.Writes.Has(line) {
			continue
		}
		if x.e.mem.NewestTS(line) > x.start {
			return x.commitAbortReserved(end, line, tm.AbortSkew)
		}
	}

	// SSI-TM: writing lines that concurrent transactions have read
	// creates rw antidependencies reader->writer; set the flags and
	// abort any reader that becomes dangerous (§5.2).
	if x.e.cfg.Serializable {
		if err := x.ssiWriterCheck(end); err != nil {
			return err
		}
		// Record this commit as the newest writer of its lines so later
		// readers of the overwritten versions can apply the read-side
		// committed-pivot rule (see trackRead).
		for _, line := range x.Writes.Lines() {
			rec, _ := x.e.lastWriter.Put(line)
			rec.tx, rec.epoch = x, x.epoch
		}
	}

	// Publish: invalidate the committed lines in other cores' private
	// caches so subsequent transactions fetch the new versions (§4.4).
	x.Thread.Interact() // publish: audited horizon-relevant effect
	for _, line := range x.Writes.Lines() {
		x.e.Caches.PublishVersioned(x.Thread.ID(), line)
	}
	x.committed = true
	x.end = end
	x.resetAccessSets()
	x.e.clk.CompleteEnd(end)
	x.Committed(false) // critical section over: re-publishes the slack
	x.Thread.WakeAll() // release starters stalled on the commit window
	x.Thread.Tick(2)
	return nil
}

// changedMaskWords returns the subset of the write mask whose words
// actually differ from the transaction's snapshot. Words written back
// unmodified are silent stores (Lepak/Waliullah): executing or eliding
// them leaves the transaction's observable effect identical.
func changedMaskWords(mask uint8, words, snap *[mem.WordsPerLine]uint64) uint8 {
	var m uint8
	for i := 0; i < mem.WordsPerLine; i++ {
		if mask&(1<<i) != 0 && words[i] != snap[i] {
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
func (x *txn) trueConflict(line mem.Line, mask uint8, snap *[mem.WordsPerLine]uint64) bool {
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
// reader gains an outgoing edge, which its own commit checks; a committed
// concurrent reader that already had an incoming edge is a pivot this
// transaction cannot serialize around, so this transaction aborts.
func (x *txn) ssiWriterCheck(end clock.Timestamp) error {
	// Flags are applied to every concurrent reader of every written
	// line before the dangerous-structure verdict, so the outcome does
	// not depend on record order. Stale records — recycled objects,
	// aborted readers, committed readers no transaction overlaps — are
	// skipped by the same conditions that would remove them, so lazy
	// sweeping never changes a verdict.
	abort := false
	var abortLine mem.Line
	for _, line := range x.Writes.Lines() {
		rs, ok := x.e.readers.Get(line)
		if !ok {
			continue
		}
		for _, ent := range rs.Entries() {
			r := ent.Tx
			if r == x || r.epoch != ent.Epoch {
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
			if r.Finished {
				continue // aborted reader
			}
			// rw edge r -> x between active transactions.
			r.outFlag = true
			x.inFlag = true
		}
	}
	if abort || (x.inFlag && x.outFlag) {
		return x.commitAbortReserved(end, abortLine, tm.AbortSkew)
	}
	return nil
}

// commitAbortReserved rolls back optimistic installs, retires the end
// reservation, and returns the abort error. The transaction iterates over
// its write set and removes all written lines from the MVM (§4.2).
func (x *txn) commitAbortReserved(end clock.Timestamp, line mem.Line, kind tm.AbortKind) error {
	for i := len(x.installBuf) - 1; i >= 0; i-- {
		x.Thread.Tick(x.Hier.Access(x.installBuf[i].line))
		x.Thread.Interact() // revert: audited horizon-relevant effect
		x.e.mem.Revert(x.installBuf[i].line, end, x.installBuf[i].undo)
	}
	x.e.clk.CompleteEnd(end)
	x.resetAccessSets()
	x.Aborted(kind) // critical section over: re-publishes the slack
	x.Thread.WakeAll()
	return &tm.AbortError{Kind: kind, Line: line}
}
