// Package twopl implements the paper's first baseline (§6.1): a
// state-of-the-art HTM with two-phase-locking semantics — eager conflict
// detection with a "requester wins" policy and lazy version management.
//
// Conflicts are detected at every transactional access, modelling the
// coherency broadcast: a transactional read sends a get-shared message
// that aborts any other transaction holding the line in its write set; a
// transactional write sends a get-exclusive message that aborts every
// other reader and writer of the line. Read and write sets are perfect
// (no-false-positive) bloom filters, modelled as exact sets. Commits
// serialize on a commit token and write the speculative write log back to
// memory, publishing each line to the other cores' private caches through
// the engine's cache.System; aborts discard the logs and restart in
// software.
//
// Access tracking follows the hardware it models, which keeps read bits
// per cache line. Each live transaction owns a slot, and each line keeps a
// bitmap over slots (aset.ReadHolds). A read sets the reader's bit, and a
// get-exclusive dooms the owners of the set bits. The writer hold is one
// pointer per line. The write log is an aset.WriteLog. A finishing
// transaction walks its read lines and its write log to clear its own
// bits and writer holds. Every recorded hold therefore belongs to a live
// transaction, and no liveness check is needed. The pre-aset map-based
// engine is kept verbatim in slow.go as a differential oracle behind
// Config.ReferenceSets.
//
// A transaction that has written nothing can batch its reads under the
// conductor's horizon (sched.Thread.TickHinted): its next get-exclusive
// or commit lies behind at least one more access charge, so it publishes
// L1Latency + BroadcastCost cycles of interaction slack until its first
// write. Reads that would doom a writer, writes and commits stay per
// event (DESIGN.md "Horizon batching").
package twopl

import (
	"fmt"
	"math/bits"

	"repro/internal/aset"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/tm"
)

// Config tunes the baseline.
type Config struct {
	Cache cache.Config
	// BroadcastCost is the per-access cycle cost of the coherency
	// broadcast used for eager conflict detection.
	BroadcastCost uint64
	// CommitOverhead is the fixed cost of acquiring the commit token.
	CommitOverhead uint64
	// VersionBufferLines bounds the speculative write set: conventional
	// HTMs use the L1 cache as the version buffer and abort on
	// overflow (§4.3 — Haswell aborts transactions touching more than
	// its L1 can hold, sometimes after only 9 writes due to
	// associativity). 0 models an idealised unbounded buffer.
	VersionBufferLines int
	// InterruptPeriod injects an interrupt every N transactional
	// accesses engine-wide; a cache-buffered transaction cannot
	// survive a context switch, so the transaction running on the
	// interrupted thread aborts (§1, §4.3). 0 disables injection.
	InterruptPeriod int
	// InterruptCost is the handler overhead charged per interrupt.
	InterruptCost uint64
	// ReferenceSets routes transactions through the verbatim map-based
	// access-set implementation (slow.go), the differential oracle for
	// the aset fast path. Results are bit-identical to the default; only
	// simulator wall time changes.
	ReferenceSets bool
	// ReferenceStore backs the per-word values and per-line lock tables
	// with the retained dense mem store instead of the paged one, the
	// differential oracle for the paged backing. Results are
	// bit-identical to the default; only memory footprint changes.
	ReferenceStore bool
}

// DefaultConfig returns the evaluated configuration: idealised unbounded
// version buffers and no interrupts, matching the paper's baseline model.
func DefaultConfig() Config {
	return Config{Cache: cache.DefaultConfig(), BroadcastCost: 2, CommitOverhead: 10, InterruptCost: 200}
}

// noLine is the lastRead sentinel: no real line has this number, so a
// fresh transaction's first read always takes the set path.
const noLine = ^mem.Line(0)

// Engine is the 2PL baseline.
type Engine struct {
	cfg Config
	// caches is the simulated memory system; thread i runs on core i.
	caches *cache.System
	stats  tm.Stats
	tracer tm.Tracer

	// words and writers are paged tables keyed by word/line number: the
	// simulated address space is dense (bump allocated), and these sit
	// on the per-access hot path where a map hash dominated. The paged
	// backing keeps the heap proportional to touched lines at
	// serving-scale footprints (Config.ReferenceStore retains the dense
	// backing as the differential oracle). writers holds each line's
	// live writer, nil when none.
	words   mem.Paged[uint64]
	writers mem.Paged[*txn]
	// readers holds each line's live readers as a bitmap over the
	// transactions' slots.
	readers aset.ReadHolds[*txn]
	txnSeq  uint64

	// lastTxn recycles each thread's most recent transaction object,
	// indexed by thread ID: finishing a transaction clears its holds, so
	// the object — and its already-grown access sets — can be reused
	// without a fresh allocate-and-rehash cycle.
	lastTxn []*txn

	// Reference map-based implementation state (slow.go), used only when
	// cfg.ReferenceSets.
	linesSlow   mem.Dense[*slowLineState]
	lastTxnSlow map[int]*slowTxn

	commitBusy  bool
	accessCount int

	// batch enables the horizon-batched read path (sched.TickHinted):
	// the fast access sets and cache model, no interrupt injection (its
	// engine-wide access counter is order-sensitive) and no tracer.
	// batchable holds the configuration-derived part; SetTracer
	// recomputes batch.
	batch     bool
	batchable bool
}

// New creates a 2PL engine.
func New(cfg Config) *Engine {
	e := &Engine{cfg: cfg, caches: cache.NewSystem(cfg.Cache, cfg.ReferenceStore)}
	if cfg.ReferenceSets {
		e.lastTxnSlow = make(map[int]*slowTxn)
	}
	if cfg.ReferenceStore {
		e.words.SetReference()
		e.writers.SetReference()
		e.readers.SetReference()
	}
	e.batchable = !cfg.ReferenceSets && !cfg.Cache.Reference && cfg.InterruptPeriod <= 0
	e.batch = e.batchable
	return e
}

// Name implements tm.Engine.
func (e *Engine) Name() string { return "2PL" }

// Stats implements tm.Engine.
func (e *Engine) Stats() *tm.Stats { return &e.stats }

// Promote implements tm.Engine. 2PL already aborts on read-write
// conflicts, so promotion is a no-op: serializability needs no repair.
func (e *Engine) Promote(string) {}

// SetTracer implements tm.Engine. Tracing pins the per-access event
// order, so it also disables the horizon-batched read path.
func (e *Engine) SetTracer(tr tm.Tracer) {
	e.tracer = tr
	e.batch = e.batchable && tr == nil
}

// readSlack is the interaction slack of a thread whose transaction has
// written nothing: its next get-exclusive dooms readers only after a
// write charge of at least one L1 access plus the broadcast.
func (e *Engine) readSlack() uint64 { return e.cfg.Cache.L1Latency + e.cfg.BroadcastCost }

// NonTxRead implements tm.Engine.
//
//sitm:allow(yieldlint) workload setup/verification API, called before threads start or after they quiesce
func (e *Engine) NonTxRead(a mem.Addr) uint64 { return e.words.Load(mem.WordIndex(a)) }

// NonTxWrite implements tm.Engine.
//
//sitm:allow(yieldlint) workload setup/verification API, called before threads start or after they quiesce
func (e *Engine) NonTxWrite(a mem.Addr, v uint64) { e.words.Store(mem.WordIndex(a), v) }

// ReleaseCaches returns the simulated cache arrays to the scratch pool
// the engine was configured with (no-op without one). The harness calls
// it once the run's statistics have been extracted; the engine must not
// run transactions afterwards.
func (e *Engine) ReleaseCaches() { e.caches.Release() }

// CacheStats returns aggregate cache statistics over all cores.
func (e *Engine) CacheStats() cache.Stats { return e.caches.Stats() }

// AuditAccessSets verifies that no live access-set state survives outside
// a running transaction: recycled transaction objects hold empty sets, no
// line holds a reader bit or a writer, and every slot is free. It reports
// the lowest offending thread or line. tmtest calls it after each
// conformance cell. The reference (map-based) path keeps the pre-aset
// engine's own lifecycle — cleanup deletes its holds eagerly — so it is
// not audited.
//
//sitm:allow(yieldlint) quiescent audit scan, runs after every simulated thread has finished
func (e *Engine) AuditAccessSets() error {
	if e.cfg.ReferenceSets {
		return nil
	}
	for id, tx := range e.lastTxn {
		if tx == nil {
			continue
		}
		if !tx.finished {
			return fmt.Errorf("twopl: thread %d transaction unfinished", id)
		}
		if n := tx.writes.Len(); n != 0 {
			return fmt.Errorf("twopl: thread %d leaked %d write-log lines", id, n)
		}
		if n := len(tx.readLines); n != 0 {
			return fmt.Errorf("twopl: thread %d leaked %d read lines", id, n)
		}
	}
	var auditErr error
	e.writers.Range(func(i uint64, w **txn) {
		if auditErr == nil && *w != nil {
			auditErr = fmt.Errorf("twopl: line %d holds a writer after quiescence", i)
		}
	})
	if auditErr != nil {
		return auditErr
	}
	if err := e.readers.Audit(); err != nil {
		return fmt.Errorf("twopl: %v after quiescence", err)
	}
	return nil
}

// txn is one 2PL transaction attempt.
type txn struct {
	e  *Engine
	t  *sched.Thread
	h  *cache.Hierarchy
	id uint64
	// slot is this transaction's bit in every line's reader bitmap,
	// owned from Begin until cleanup.
	slot int

	// readLines lists the lines this transaction holds in shared mode,
	// each once, in first-read order: cleanup clears its bit on them.
	readLines []mem.Line
	// lastRead memoises the line of the previous Read: registration is
	// idempotent and never revoked mid-transaction, so a repeat read of
	// the same line (sequential word scans hit the same line eight
	// times) can skip the bitmap entirely.
	lastRead mem.Line
	// writes buffers the speculative stores: line membership,
	// first-write order and the logged words in one structure.
	writes aset.WriteLog

	doomed   bool
	doomKind tm.AbortKind
	doomLine mem.Line
	finished bool
	site     string
}

var _ tm.Txn = (*txn)(nil)

// Begin implements tm.Engine.
func (e *Engine) Begin(t *sched.Thread) tm.Txn {
	if e.cfg.ReferenceSets {
		return e.beginSlow(t)
	}
	e.txnSeq++
	var tx *txn
	id := t.ID()
	for id >= len(e.lastTxn) {
		e.lastTxn = append(e.lastTxn, nil)
	}
	if old := e.lastTxn[id]; old != nil && old.finished {
		// The object's sets were Reset when it finished, keeping their
		// grown capacity. The thread object can differ across scheduler
		// runs even for the same thread ID, so it is rebound.
		old.t = t
		old.id = e.txnSeq
		old.lastRead = noLine
		old.doomed, old.doomKind, old.doomLine = false, 0, 0
		old.finished = false
		old.site = ""
		tx = old
	} else {
		tx = &txn{
			e: e, t: t, h: e.caches.Core(id), id: e.txnSeq,
			lastRead: noLine,
		}
		e.lastTxn[id] = tx
	}
	tx.slot = e.readers.Take(tx)
	t.SetSlack(e.readSlack())
	if e.tracer != nil {
		e.tracer.TxnBegin(tx.id, t.ID())
	}
	t.Tick(2)
	return tx
}

// Site implements tm.Txn.
func (x *txn) Site(s string) tm.Txn { x.site = s; return x }

// Fence implements tm.Txn (see sched.Thread.Fence).
func (x *txn) Fence() { x.t.Fence() }

// access performs the access to line and returns its latency, and
// whether the caller may charge it through TickHinted. A batchable
// access — one whose after-charge effects the caller certified
// non-interacting — may, if the thread still leads (the access then
// happens at the per-event point) or if this core's L1 or L2 serves it
// (cache.Hierarchy.AccessPrivate); a private miss past the bound would
// reach the shared L3. Any other access fences first and is charged per
// event: after the fence's yield the caller's certificate may be stale.
func (x *txn) access(line mem.Line, batchable bool) (uint64, bool) {
	if batchable {
		if x.t.Leads() {
			return x.h.Access(line), true
		}
		if lat, ok := x.h.AccessPrivate(line); ok {
			return lat, true
		}
	}
	x.t.Fence()
	return x.h.Access(line), false
}

// doom marks a victim transaction aborted; the requester always wins.
func (x *txn) doom(kind tm.AbortKind, line mem.Line) {
	if !x.doomed {
		x.doomed = true
		x.doomKind = kind
		x.doomLine = line
	}
}

// checkDoom unwinds the transaction (via the tm abort signal) if a
// requester doomed it; used on the Read/Write paths.
func (x *txn) checkDoom() {
	if !x.doomed {
		return
	}
	x.abortDoomed()
	tm.SignalAbort(x.doomKind, x.doomLine)
}

// abortDoomed finalises a doomed transaction and returns its abort error;
// used on the Commit path, which reports aborts as error values.
func (x *txn) abortDoomed() error {
	x.cleanup()
	x.e.stats.Count(x.doomKind)
	if x.e.tracer != nil {
		x.e.tracer.TxnAbort(x.id)
	}
	return &tm.AbortError{Kind: x.doomKind, Line: x.doomLine}
}

// maybeInterrupt injects a periodic interrupt: a cache-buffered
// transaction cannot survive the context switch and aborts (§4.3).
func (x *txn) maybeInterrupt(line mem.Line) {
	if x.e.cfg.InterruptPeriod <= 0 {
		return
	}
	x.e.accessCount++
	if x.e.accessCount%x.e.cfg.InterruptPeriod != 0 {
		return
	}
	x.t.Tick(x.e.cfg.InterruptCost)
	x.cleanup()
	x.e.stats.Count(tm.AbortInterrupt)
	if x.e.tracer != nil {
		x.e.tracer.TxnAbort(x.id)
	}
	tm.SignalAbort(tm.AbortInterrupt, line)
}

// Read implements tm.Txn: a get-shared broadcast aborts any conflicting
// writer ("requester wins"), then the line joins the read set.
//
// A read batches only while the transaction has written nothing and no
// other transaction holds the line as writer. Its after-charge effects
// are then this transaction's own reader bit and a word load, which only
// a get-exclusive or a commit write-back — both audited, and behind a
// parked thread's published slack — could observe or change.
func (x *txn) Read(a mem.Addr) uint64 {
	x.checkDoom()
	line := mem.LineOf(a)
	x.maybeInterrupt(line)
	lat, hinted := x.access(line, x.e.batch && x.writes.Len() == 0 && x.e.writers.Load(uint64(line)) == nil)
	if hinted {
		x.t.TickHinted(lat + x.e.cfg.BroadcastCost)
	} else {
		x.t.Tick(lat + x.e.cfg.BroadcastCost)
	}
	if x.e.tracer != nil {
		x.e.tracer.TxnRead(x.id, a, x.site)
	}
	// Re-load the writer: one may have taken the line while the charge
	// yielded, and dooming it happens at the per-event point (a batched
	// charge found no writer and did not yield).
	if w := x.e.writers.Load(uint64(line)); w != nil && w != x {
		w.doom(tm.AbortReadWrite, line)
	}
	if line != x.lastRead {
		if x.e.readers.Add(x.slot, line) {
			x.readLines = append(x.readLines, line)
		}
		x.lastRead = line
	}
	if v, ok := x.writes.Load(a); ok {
		return v
	}
	return x.e.words.Load(mem.WordIndex(a))
}

// ReadPromoted implements tm.Txn; under 2PL it is an ordinary read.
func (x *txn) ReadPromoted(a mem.Addr) uint64 { return x.Read(a) }

// Write implements tm.Txn: a get-exclusive broadcast aborts every other
// reader and writer of the line, then the store is logged.
func (x *txn) Write(a mem.Addr, v uint64) {
	x.checkDoom()
	line := mem.LineOf(a)
	x.maybeInterrupt(line)
	// The get-exclusive dooms other transactions right after this
	// charge, and so may every later access and the commit: from the
	// first write on the thread promises no slack.
	x.t.SetSlack(0)
	x.t.Fence()
	x.t.Tick(x.h.Access(line) + x.e.cfg.BroadcastCost)
	if x.e.tracer != nil {
		x.e.tracer.TxnWrite(x.id, a, x.site)
	}
	// Version-buffer overflow (§4.3): the L1-resident speculative state
	// cannot exceed the buffer; the transaction aborts.
	if n := x.e.cfg.VersionBufferLines; n > 0 {
		if !x.writes.Has(line) && x.writes.Len() >= n {
			x.cleanup()
			x.e.stats.Count(tm.AbortCapacity)
			if x.e.tracer != nil {
				x.e.tracer.TxnAbort(x.id)
			}
			tm.SignalAbort(tm.AbortCapacity, line)
		}
	}
	x.t.Interact() // get-exclusive broadcast: per-event interaction
	wp := x.e.writers.Slot(uint64(line))
	if w := *wp; w != nil && w != x {
		w.doom(tm.AbortWriteWrite, line)
	}
	for k := 0; k < x.e.readers.Words(); k++ {
		for b := x.e.readers.Word(k, line); b != 0; b &= b - 1 {
			if r := x.e.readers.Owner(k<<6 | bits.TrailingZeros64(b)); r != x {
				r.doom(tm.AbortReadWrite, line)
			}
		}
	}
	*wp = x
	x.writes.Store(a, v)
}

// cleanup releases the transaction's line holds — its reader bits, its
// slot and the writer holds a later writer has not taken over — resets
// its sets, keeping their capacity, and re-publishes the read-phase
// slack: the thread's next get-exclusive lies in a later transaction.
func (x *txn) cleanup() {
	x.finished = true
	x.t.SetSlack(x.e.readSlack())
	for _, line := range x.writes.Lines() {
		if wp := x.e.writers.Slot(uint64(line)); *wp == x {
			*wp = nil
		}
	}
	x.e.readers.Release(x.slot, x.readLines)
	x.readLines = x.readLines[:0]
	x.writes.Reset()
}

// Abort implements tm.Txn: read and write logs are discarded and the
// transaction restarts in software (§6.1).
func (x *txn) Abort() {
	if x.finished {
		return
	}
	x.cleanup()
	x.e.stats.Count(tm.AbortExplicit)
	if x.e.tracer != nil {
		x.e.tracer.TxnAbort(x.id)
	}
	x.t.Tick(2)
}

// Commit implements tm.Txn: the thread obtains the commit token, iterates
// over its write log and commits the speculative writes to main memory
// (§6.1).
func (x *txn) Commit() error {
	if x.finished {
		panic("twopl: Commit on finished transaction")
	}
	if x.doomed {
		return x.abortDoomed()
	}
	if x.writes.Len() == 0 {
		x.cleanup()
		x.e.stats.Commits++
		x.e.stats.ReadOnly++
		if x.e.tracer != nil {
			x.e.tracer.TxnCommit(x.id)
		}
		x.t.Tick(2)
		return nil
	}
	// The slack is already zero and the transaction stopped batching at
	// its first write; the fence keeps the order-sensitive token and
	// write-back at the per-event point without relying on that.
	x.t.Fence()
	for x.e.commitBusy {
		x.e.stats.Stalls++
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
	x.t.Interact() // write-back + invalidations: per-event interactions
	for i := 0; i < x.writes.Len(); i++ {
		line, w := x.writes.At(i)
		for word := 0; word < mem.WordsPerLine; word++ {
			if w.Mask&(1<<word) != 0 {
				x.e.words.Store(mem.WordIndex(mem.WordAddr(line, word)), w.Words[word])
			}
		}
	}
	for _, line := range x.writes.Lines() {
		x.t.Tick(x.h.Access(line))
		x.e.caches.Publish(x.t.ID(), line)
	}
	x.e.commitBusy = false
	x.cleanup()
	x.e.stats.Commits++
	if x.e.tracer != nil {
		x.e.tracer.TxnCommit(x.id)
	}
	x.t.WakeAll()
	return nil
}
