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
// Access tracking uses the signature-backed tables of internal/aset
// (write sets, promoted-read sets, and epoch-stamped visible-reader
// records), mirroring the fixed hardware set structures of real HTMs. The
// pre-aset map-based engine is kept verbatim in slow.go as a differential
// oracle behind Config.ReferenceSets.
package core

import (
	"fmt"
	"math/bits"

	"repro/internal/aset"
	"repro/internal/cache"
	"repro/internal/clock"
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
	// ReferenceSets routes transactions through the verbatim map-based
	// access-set implementation (slow.go), the differential oracle for
	// the aset fast path. Results are bit-identical to the default; only
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

// Engine is the SI-TM transactional memory.
type Engine struct {
	cfg    Config
	clk    *clock.Clock
	active *clock.ActiveTable
	mem    *mvm.Memory
	shared *cache.Shared
	// hiers holds each core's private hierarchy, indexed by thread ID
	// (IDs are dense, 0..n-1); nil until the thread first begins. nHier
	// counts the created entries.
	hiers  []*cache.Hierarchy
	nHier  int
	stats  tm.Stats
	tracer tm.Tracer

	// presence and xpresence filter commit-time invalidation (see
	// cache.Presence): presence tracks which cores may hold a data line
	// in L1/L2, xpresence which cores may hold a version-list line in
	// their translation cache. The translation cache is keyed at
	// version-list-line granularity — eight data lines share one entry —
	// so translations need their own filter at that granularity.
	presence  cache.Presence
	xpresence cache.Presence

	promoted map[string]bool
	txnSeq   uint64

	// lastTxn recycles each thread's most recent transaction object,
	// indexed by thread ID. Under Serializable, a committed transaction
	// is recyclable only once no active transaction overlaps it (its
	// SIREAD-style read records are then dead); recycling bumps the
	// object's epoch, which invalidates any remaining reader records at
	// once.
	lastTxn []*txn

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

	// slow holds the reference map-based implementation state (slow.go),
	// nil unless cfg.ReferenceSets.
	slow *slowState

	// batch enables the horizon-batched access path (sched.TickHinted):
	// plain SI-TM with the fast cache model, fast access sets and no
	// tracer. SSI-TM is excluded — its read paths mutate shared reader
	// tables and its read-only commits take order-sensitive clock reads —
	// as are the reference models, whose hits rewrite observable state.
	// batchable holds the configuration-derived part; batch additionally
	// requires no tracer (SetTracer recomputes it).
	batch     bool
	batchable bool
}

// New creates an SI-TM engine.
func New(cfg Config) *Engine {
	clk := clock.New()
	clk.MaxInflight = cfg.MaxInflight
	active := clock.NewActiveTable()
	e := &Engine{
		cfg:       cfg,
		clk:       clk,
		active:    active,
		mem:       mvm.New(cfg.MVM, clk, active),
		shared:    cache.NewShared(cfg.Cache),
		promoted:  make(map[string]bool),
		presence:  cache.NewPresence(cfg.Cache.Scratch, cfg.ReferenceStore),
		xpresence: cache.NewPresence(cfg.Cache.Scratch, cfg.ReferenceStore),
	}
	e.liveReader = e.readerLive
	if cfg.ReferenceSets {
		e.slow = newSlowState(cfg.Serializable)
	}
	e.batchable = !cfg.Serializable && !cfg.ReferenceSets && !cfg.Cache.Reference
	e.batch = e.batchable
	return e
}

// Name implements tm.Engine.
func (e *Engine) Name() string {
	if e.cfg.Serializable {
		return "SSI-TM"
	}
	return "SI-TM"
}

// Stats implements tm.Engine.
func (e *Engine) Stats() *tm.Stats { return &e.stats }

// Promote implements tm.Engine: reads issued under the given site label
// are inserted into the write set for conflict detection without creating
// data versions (§5.1).
func (e *Engine) Promote(site string) { e.promoted[site] = true }

// SetTracer implements tm.Engine. Tracing pins the per-access event
// order, so it also disables the horizon-batched access path.
func (e *Engine) SetTracer(tr tm.Tracer) {
	e.tracer = tr
	e.batch = e.batchable && tr == nil
}

// MVM exposes the engine's multiversioned memory for measurement
// (Table 2 / Appendix A statistics).
func (e *Engine) MVM() *mvm.Memory { return e.mem }

// Clock exposes the engine's global timestamp clock.
func (e *Engine) Clock() *clock.Clock { return e.clk }

// hierarchy returns (creating on first use) the private cache hierarchy of
// logical thread t.
func (e *Engine) hierarchy(t *sched.Thread) *cache.Hierarchy {
	id := t.ID()
	for id >= len(e.hiers) {
		e.hiers = append(e.hiers, nil)
	}
	h := e.hiers[id]
	if h == nil {
		h = cache.NewHierarchy(e.cfg.Cache, e.shared)
		e.hiers[id] = h
		e.nHier++
	}
	return h
}

// CacheStats returns aggregate cache statistics over all cores.
func (e *Engine) CacheStats() cache.Stats {
	var s cache.Stats
	for _, h := range e.hiers {
		if h == nil {
			continue
		}
		s.L1Hits += h.Stats.L1Hits
		s.L2Hits += h.Stats.L2Hits
		s.L3Hits += h.Stats.L3Hits
		s.MemAccesses += h.Stats.MemAccesses
		s.XlateHits += h.Stats.XlateHits
		s.XlateMisses += h.Stats.XlateMisses
		s.Accesses += h.Stats.Accesses
	}
	return s
}

// ReleaseCaches returns the simulated cache arrays to the scratch pool
// the engine was configured with (no-op without one). The harness calls
// it once the run's statistics have been extracted; the engine must not
// run transactions afterwards.
func (e *Engine) ReleaseCaches() {
	for _, h := range e.hiers {
		if h != nil {
			h.Release()
		}
	}
	e.hiers = nil
	e.shared.Release()
	e.presence.Release(e.cfg.Cache.Scratch)
	e.xpresence.Release(e.cfg.Cache.Scratch)
}

// AuditAccessSets verifies that no live access-set state survives outside
// a running transaction: every recycled transaction object holds empty
// sets, and every reader list compacts to nothing once no transaction is
// active. It reports the lowest offending thread. tmtest calls it after
// each conformance cell. The reference (map-based) path keeps the
// pre-aset engine's own lifecycle — maps are cleared at Begin, readers
// pruned periodically — so it is not audited.
func (e *Engine) AuditAccessSets() error {
	if e.cfg.ReferenceSets {
		return nil
	}
	for id, tx := range e.lastTxn {
		if tx == nil {
			continue
		}
		if !tx.finished {
			return fmt.Errorf("core: thread %d transaction unfinished", id)
		}
		if n := tx.writes.Len(); n != 0 {
			return fmt.Errorf("core: thread %d leaked %d write-set lines", id, n)
		}
		if n := tx.promoted.Len(); n != 0 {
			return fmt.Errorf("core: thread %d leaked %d promoted lines", id, n)
		}
		if n := tx.reads.Len(); n != 0 {
			return fmt.Errorf("core: thread %d leaked %d read-set lines", id, n)
		}
		if n := len(tx.installBuf); n != 0 {
			return fmt.Errorf("core: thread %d leaked %d install records", id, n)
		}
	}
	for i := 0; i < e.readers.Len(); i++ {
		line, rs := e.readers.At(i)
		rs.Compact(e.liveReader)
		if n := rs.Len(); n != 0 {
			return fmt.Errorf("core: line %d holds %d live reader records after quiescence", line, n)
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

// installRec remembers an optimistic install for rollback.
type installRec struct {
	line mem.Line
	undo mvm.Undo
}

// txn is one SI-TM transaction attempt.
type txn struct {
	e     *Engine
	t     *sched.Thread
	h     *cache.Hierarchy
	id    uint64
	start clock.Timestamp
	site  string
	// selfBit is this thread's presence bit (cache.CoreBit of its ID),
	// noted on every access so committers know this core may hold the
	// line (and, for versioned reads, its translation).
	selfBit uint64
	// epoch distinguishes incarnations of a recycled transaction object:
	// reader records carry the epoch they were made under, so recycling
	// invalidates all of an object's records without walking any table.
	epoch uint64

	// writes buffers the transaction's stores: line membership,
	// first-write order, and the buffered words in one structure.
	writes aset.WriteLog
	// promoted are reads promoted into conflict detection (§5.1); they
	// are validated like writes but create no versions. Iteration order
	// is first-promotion order, so commit-time cycle charging is
	// deterministic.
	promoted aset.LineSet

	// SSI-TM state (§5.2). The flags record rw-antidependency edges:
	// outFlag means this transaction read a line a concurrent
	// transaction (later) wrote (edge this -> other); inFlag means a
	// concurrent transaction read a line this transaction wrote (edge
	// other -> this). A transaction with both — a dangerous structure —
	// aborts. Reader records persist after commit (like SIREAD locks)
	// until no overlapping transaction remains, so committed pivots are
	// still detected; reads dedups this transaction's own registrations.
	reads aset.LineSet
	// hadReads records that this incarnation registered at least one
	// visible-reader record; canRecycle consults it after reads has been
	// Reset.
	hadReads bool
	inFlag   bool
	outFlag  bool
	doomed   bool

	committed bool
	end       clock.Timestamp // end timestamp once committed

	finished bool

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
	if e.cfg.ReferenceSets {
		return e.beginSlow(t)
	}
	for e.clk.MustStall() {
		e.clk.Stalls++
		e.stats.Stalls++
		t.Stall()
	}
	e.txnSeq++
	var tx *txn
	id := t.ID()
	for id >= len(e.lastTxn) {
		e.lastTxn = append(e.lastTxn, nil)
	}
	if old := e.lastTxn[id]; old != nil && old.finished && e.canRecycle(old) {
		// The object's sets were Reset when it finished, keeping their
		// grown capacity; bumping the epoch retires any reader records
		// the previous incarnation left behind. The thread object can
		// differ across scheduler runs even for the same thread ID, so
		// it is rebound.
		old.t = t
		old.id = e.txnSeq
		old.start = e.clk.Begin()
		old.site = ""
		old.epoch++
		old.hadReads = false
		old.inFlag, old.outFlag, old.doomed = false, false, false
		old.committed, old.finished = false, false
		old.end = 0
		tx = old
	} else {
		tx = &txn{
			e:       e,
			t:       t,
			h:       e.hierarchy(t),
			id:      e.txnSeq,
			start:   e.clk.Begin(),
			selfBit: cache.CoreBit(id),
			epoch:   1,
		}
		e.lastTxn[id] = tx
	}
	e.active.Register(tx.start)
	if e.tracer != nil {
		e.tracer.TxnBegin(tx.id, t.ID())
	}
	if e.batch {
		// Publish the interaction slack backing the horizon-batched
		// path: from any parked position outside the writer-commit
		// critical section, this thread's next horizon-relevant effect
		// (install, invalidation, presence drain, revert) sits behind
		// the commit-entry Tick(CommitOverhead) plus at least one
		// charged line access, so it lands at least CommitOverhead +
		// L1Latency cycles past the parked key. Commit zeroes the slack
		// before entering the critical section.
		t.SetSlack(e.cfg.CommitOverhead + e.cfg.Cache.L1Latency)
	}
	t.Tick(2) // atomic increment of the global timestamp counter
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
	if r.epoch != epoch || (r.finished && !r.committed) {
		return false
	}
	if !r.finished {
		return true
	}
	oldest, any := e.active.OldestActive()
	return any && r.end > oldest
}

// Site implements tm.Txn.
func (x *txn) Site(s string) tm.Txn {
	x.site = s
	return x
}

// Read implements tm.Txn: the most current version older than the start
// timestamp is returned (§4.2, TM READ), unless the transaction itself
// wrote the word.
// Fence ends any batched scheduling quantum of the transaction's thread
// (txlib's in-transaction allocator calls it so that shared
// non-transactional effects — bump allocations — happen in simulated
// order; see sched.Thread.Fence). A no-op outside horizon batching.
func (x *txn) Fence() { x.t.Fence() }

func (x *txn) Read(a mem.Addr) uint64 {
	// Most workloads never promote a site; the len guard keeps the
	// string-keyed map hash off the per-read hot path in that case.
	if len(x.e.promoted) != 0 && x.e.promoted[x.site] {
		return x.ReadPromoted(a)
	}
	return x.read(a)
}

func (x *txn) read(a mem.Addr) uint64 {
	line := mem.LineOf(a)
	// Note before the Tick: the fills happen when AccessVersioned
	// evaluates, before the yield, so the presence records must be in
	// place for any commit that interleaves with the yield. A versioned
	// access may fill both the data line and its translation.
	x.e.presence.Note(line, x.selfBit)
	x.e.xpresence.Note(cache.XlateLine(line), x.selfBit)
	if lat, ok := x.privateHit(line); ok {
		// Certified non-interacting: the presence Notes above are blind
		// ORs and a private L1/L2 hit touches only this core's caches,
		// which other cores write only through commit invalidations
		// beyond the horizon, so this event may run inside a batched
		// quantum past the inline bound (DESIGN.md "Horizon batching").
		// The snapshot read below is pinned too — any concurrent install
		// sits behind the horizon.
		x.t.TickHinted(lat)
	} else {
		// An L2 miss reaches the shared L3, the translation cache and
		// the MVM partition, so it must happen at the per-event point.
		x.t.Fence()
		x.t.Tick(x.h.AccessVersioned(line))
	}
	if x.e.tracer != nil {
		x.e.tracer.TxnRead(x.id, a, x.site)
	}
	if x.e.cfg.Serializable {
		x.trackRead(line)
	}
	if v, ok := x.writes.Load(a); ok {
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
	x.promoted.Add(mem.LineOf(a))
	return x.read(a)
}

// Write implements tm.Txn: the store is buffered in the write set and the
// line marked transactionally written (§4.2, TM WRITE); no coherency
// traffic is emitted under lazy conflict detection.
func (x *txn) Write(a mem.Addr, v uint64) {
	line := mem.LineOf(a)
	x.e.presence.Note(line, x.selfBit)
	if lat, ok := x.privateHit(line); ok {
		// Same certification as read: a private L1/L2 hit plus the local
		// write-set store interacts with nothing inside the horizon.
		x.t.TickHinted(lat)
	} else {
		x.t.Fence()
		x.t.Tick(x.h.Access(line)) // write into the private cache
	}
	if x.e.tracer != nil {
		x.e.tracer.TxnWrite(x.id, a, x.site)
	}
	x.writes.Store(a, v)
}

// privateHit performs the access to line when horizon batching is on and
// this core's private caches serve it (cache.Hierarchy.AccessPrivate; an
// L1 or L2 hit costs the same plain or versioned). It reports false, and
// touches nothing, otherwise.
func (x *txn) privateHit(line mem.Line) (uint64, bool) {
	if !x.e.batch {
		return 0, false
	}
	return x.h.AccessPrivate(line)
}

// trackRead registers this transaction as a visible reader of line for
// SSI-TM's rw-antidependency detection. Reading a line that a concurrent
// transaction has already overwritten records an outgoing edge — and, if
// that overwrite came from a committed transaction that itself has an
// outgoing edge, completes a dangerous structure around a committed
// pivot, which only this reader can break by aborting (§5.2; the
// read-side dual of ssiWriterCheck's committed-pivot rule).
func (x *txn) trackRead(line mem.Line) {
	x.checkDoom(line)
	if x.reads.Add(line) {
		x.hadReads = true
		rs, _ := x.e.readers.Put(line)
		rs.CompactAdd(x, x.epoch, x.e.liveReader)
	}
	if x.e.mem.NewestTS(line) > x.start {
		x.outFlag = true
		if x.inFlag {
			x.abortInternal(tm.AbortSkew, line)
		}
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

// checkDoom aborts a transaction that a committing writer marked dangerous.
func (x *txn) checkDoom(line mem.Line) {
	if x.doomed {
		x.abortInternal(tm.AbortSkew, line)
	}
}

// resetAccessSets empties the transaction's sets in O(touched), keeping
// capacity for the next incarnation. Reader records are not touched: they
// live in the engine table and expire via epoch/liveness instead.
func (x *txn) resetAccessSets() {
	x.writes.Reset()
	x.promoted.Reset()
	x.reads.Reset()
	for i := range x.installBuf {
		x.installBuf[i] = installRec{}
	}
	x.installBuf = x.installBuf[:0]
}

// release drops all engine-side state of the transaction. The local sets
// are reset immediately; a committed SSI-TM transaction's reader records
// stay live (like SIREAD locks) until no overlapping transaction remains,
// at which point readerLive retires them lazily.
func (x *txn) release() {
	x.finished = true
	x.e.active.Deregister(x.start)
	x.resetAccessSets()
}

// abortInternal counts and signals an engine-initiated abort from inside
// Read/Write; it unwinds to tm.Atomic.
func (x *txn) abortInternal(kind tm.AbortKind, line mem.Line) {
	x.release()
	x.e.stats.Count(kind)
	if x.e.tracer != nil {
		x.e.tracer.TxnAbort(x.id)
	}
	tm.SignalAbort(kind, line)
}

// Abort implements tm.Txn: the write set is discarded; nothing was
// published, so rollback is trivial (§4.3).
func (x *txn) Abort() {
	if x.finished {
		return
	}
	x.release()
	x.e.stats.Count(tm.AbortExplicit)
	if x.e.tracer != nil {
		x.e.tracer.TxnAbort(x.id)
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
func (x *txn) Commit() error {
	if x.finished {
		panic("core: Commit on finished transaction")
	}
	// SSI-TM dangerous-structure checks accumulated during execution.
	if x.e.cfg.Serializable && (x.doomed || (x.inFlag && x.outFlag)) {
		return x.commitAbort(0, tm.AbortSkew)
	}
	if x.writes.Len() == 0 && x.promoted.Len() == 0 {
		// Read-only: no end timestamp, no checks (§4.2). Under
		// SSI-TM the reader records persist so later writers still see
		// the antidependencies this reader induced. The clock read is
		// order-sensitive, so end any batched quantum first.
		x.t.Fence()
		x.committed = true
		x.end = x.e.clk.Now()
		x.release()
		x.e.stats.Commits++
		x.e.stats.ReadOnly++
		if x.e.tracer != nil {
			x.e.tracer.TxnCommit(x.id)
		}
		return nil
	}

	// Entering the writer-commit critical section: installs,
	// invalidations and presence drains follow, so the published slack
	// must drop to zero before the commit-overhead charge (a batching
	// thread reading the old slack across this Tick's yield would admit
	// events the install below could invalidate). Restored on every exit.
	x.t.SetSlack(0)
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
	for _, line := range x.promoted.Lines() {
		if x.writes.Has(line) {
			continue // validated atomically when the write installs
		}
		// Re-note: another commit may have drained this core's bit, and
		// the Access below re-fills the line.
		x.e.presence.Note(line, x.selfBit)
		x.t.Tick(x.h.Access(line))
		if x.e.mem.NewestTS(line) > x.start {
			return x.commitAbortReserved(end, line, tm.AbortSkew)
		}
	}

	for i := 0; i < x.writes.Len(); i++ {
		line, w := x.writes.At(i)
		x.e.presence.Note(line, x.selfBit)
		x.t.Tick(x.h.Access(line)) // write the line back to the MVM
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
		x.t.Interact() // install: audited horizon-relevant effect
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
		if x.writes.Has(line) {
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
		for _, line := range x.writes.Lines() {
			rec, _ := x.e.lastWriter.Put(line)
			rec.tx, rec.epoch = x, x.epoch
		}
	}

	// Publish: invalidate the committed lines in other cores' private
	// caches so subsequent transactions fetch the new versions (§4.4).
	// The presence filters bound the broadcast: data lines go only to
	// cores that accessed them, translations only to cores that made a
	// versioned access under the same version-list line (both filtered
	// at their own granularity; skipped cores would see a no-op). The
	// shared MVM partition holds one copy of the version-list line, so
	// it is scanned once per line rather than once per core — but only
	// when another core exists, matching the per-other-core fused
	// invalidation this replaces (a solo committer never invalidated
	// the partition, and partition residency is observable latency).
	x.t.Interact() // drains + invalidations: audited horizon-relevant effects
	for _, line := range x.writes.Lines() {
		for others := x.e.presence.Drain(line, x.selfBit); others != 0; {
			id := bits.TrailingZeros64(others)
			others &^= 1 << uint(id)
			x.e.hiers[id].InvalidateData(line)
		}
		for others := x.e.xpresence.Drain(cache.XlateLine(line), x.selfBit); others != 0; {
			id := bits.TrailingZeros64(others)
			others &^= 1 << uint(id)
			x.e.hiers[id].InvalidateXlate(line)
		}
		for id := 64; id < len(x.e.hiers); id++ {
			if h := x.e.hiers[id]; h != nil && id != x.t.ID() {
				h.InvalidatePrivate(line)
			}
		}
		if x.e.nHier > 1 {
			x.e.shared.InvalidateVersions(line)
		}
	}
	x.finished = true
	x.committed = true
	x.end = end
	x.resetAccessSets()
	x.e.clk.CompleteEnd(end)
	x.e.stats.Commits++
	if x.e.tracer != nil {
		x.e.tracer.TxnCommit(x.id)
	}
	x.commitSlack() // critical section over: re-publish the slack
	x.t.WakeAll()   // release starters stalled on the commit window
	x.t.Tick(2)
	return nil
}

// commitSlack re-publishes the out-of-critical-section interaction slack
// once a writer commit or rollback has finished its installs, drains and
// reverts (see Engine.Begin for the promise it encodes).
func (x *txn) commitSlack() {
	if x.e.batch {
		x.t.SetSlack(x.e.cfg.CommitOverhead + x.e.cfg.Cache.L1Latency)
	}
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
// reader that now has both flags is doomed; a committed concurrent reader
// that already had an incoming edge is a pivot this transaction cannot
// serialize around, so this transaction aborts.
func (x *txn) ssiWriterCheck(end clock.Timestamp) error {
	// Flags are applied to every concurrent reader of every written
	// line before the dangerous-structure verdict, so the outcome does
	// not depend on record order. Stale records — recycled objects,
	// aborted readers, committed readers no transaction overlaps — are
	// skipped by the same conditions that would remove them, so lazy
	// sweeping never changes a verdict.
	abort := false
	var abortLine mem.Line
	for _, line := range x.writes.Lines() {
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
		return x.commitAbortReserved(end, abortLine, tm.AbortSkew)
	}
	return nil
}

// commitAbortReserved rolls back optimistic installs, retires the end
// reservation, and returns the abort error. The transaction iterates over
// its write set and removes all written lines from the MVM (§4.2).
func (x *txn) commitAbortReserved(end clock.Timestamp, line mem.Line, kind tm.AbortKind) error {
	for i := len(x.installBuf) - 1; i >= 0; i-- {
		x.e.presence.Note(x.installBuf[i].line, x.selfBit)
		x.t.Tick(x.h.Access(x.installBuf[i].line))
		x.t.Interact() // revert: audited horizon-relevant effect
		x.e.mem.Revert(x.installBuf[i].line, end, x.installBuf[i].undo)
	}
	x.e.clk.CompleteEnd(end)
	x.finishAbort(kind)
	x.commitSlack() // critical section over: re-publish the slack
	x.t.WakeAll()
	return &tm.AbortError{Kind: kind, Line: line}
}

// commitAbort aborts before an end timestamp was reserved.
func (x *txn) commitAbort(line mem.Line, kind tm.AbortKind) error {
	x.e.active.Deregister(x.start)
	x.finishAbort(kind)
	return &tm.AbortError{Kind: kind, Line: line}
}

func (x *txn) finishAbort(kind tm.AbortKind) {
	x.finished = true
	x.resetAccessSets()
	x.e.stats.Count(kind)
	if x.e.tracer != nil {
		x.e.tracer.TxnAbort(x.id)
	}
}
