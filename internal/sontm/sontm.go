// Package sontm implements the paper's second baseline (§6.1): the SONTM
// conflict-serializable HTM of Aydonat and Abdelrahman, which commits
// transactions in the presence of conflicting accesses as long as a valid
// serialization order exists. It adds to the shared eager HTM
// (internal/eager) the SON-interval rule, the active list and the
// write-number and read-history tables.
//
// Each transaction maintains a serializability-order-number (SON) interval
// [lo, hi]. Reads-from dependencies raise the lower bound (a transaction
// serializes after the committed writer whose value it read, tracked via a
// global write-numbers table). At commit, a writer must also serialize
// after every committed reader of the lines it writes (the paper models an
// infinitely sized read-history; we keep the equivalent per-line maximum
// reader SON). A committing transaction broadcasts its write set: active
// transactions that read any of those lines must serialize before it
// (upper bound clamps), active transactions that wrote any of them must
// serialize after it (lower bound raises). A transaction whose interval
// empties can no longer be ordered and aborts. The broadcast tests a
// peer's reader bit and probes its write log's signature.
//
// Reads and writes that hit this core's private caches batch under the
// conductor's horizon (sched.Thread.TickHinted): their after-charge
// effects touch only the transaction's own sets and interval and state
// that only a writer commit changes. A transaction that has written
// nothing publishes L1Latency cycles of interaction slack — its writer
// commit lies behind at least one more write charge — plus L1Latency for
// each read it has promised (tm.Txn.PromiseReads), and none from its
// first write until it finishes. A writer commit whose broadcast dooms a
// promising reader revokes its promise (DESIGN.md "Horizon batching").
package sontm

import (
	"fmt"

	// Imported so the compiler has the bodies of the aset methods that
	// Read and Write inline through the embedded eager types.
	_ "repro/internal/aset"
	"repro/internal/cache"
	"repro/internal/eager"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/tm"
)

// Config tunes the baseline.
type Config struct {
	Cache cache.Config
	// BroadcastCost is the per-commit-line cost of broadcasting the
	// write set to other cores for read-history checks.
	BroadcastCost uint64
	// HashCost models tagging committed writes with their SON in the
	// global write-numbers hashtable (§6.1: "overheads in terms of
	// hashing and additional memory write operations").
	HashCost uint64
	// HistoryCheckCost is charged per written line and per concurrent
	// transaction at commit: the committer compares its write set
	// "against every readset in the read-history table", whose
	// population grows with concurrency — the weak point the paper
	// calls out ("the overheads of maintaining and checking conflicts
	// against this table are high") and the reason CS scalability
	// drops off at higher thread counts in Figure 8.
	HistoryCheckCost uint64
	// CommitOverhead is the fixed commit setup cost.
	CommitOverhead uint64
	// ReferenceSets (write logs in aset.LineMap's map-backed reference
	// mode) and ReferenceStore (dense tables) select the differential
	// oracles; results are identical.
	ReferenceSets, ReferenceStore bool
}

// DefaultConfig returns the evaluated configuration.
func DefaultConfig() Config {
	return Config{Cache: cache.DefaultConfig(), BroadcastCost: 4, HashCost: 6, HistoryCheckCost: 4, CommitOverhead: 10}
}

const maxSON = ^uint64(0)

// sonGap spaces the SONs that committed writers occupy. Writers take the
// next multiple of sonGap above their lower bound, leaving integer room so
// that readers overlapping two writers can still serialize between them.
const sonGap = 1 << 10

// Engine is the SONTM baseline.
type Engine struct {
	eager.Engine
	cfg Config
	// writeNums holds the SON of the last committed writer per line —
	// SONTM's global write-numbers hashtable.
	writeNums mem.Paged[uint64]
	// readNums holds the maximum SON of any committed reader per line —
	// the collapsed equivalent of the infinite read-history the paper
	// models.
	readNums mem.Paged[uint64]

	// active lists the in-flight transactions. A slice, not a set: the
	// commit broadcast walks it once per written line, and every
	// broadcast effect (interval raises/clamps, doom flags) is
	// commutative, so the swap-remove order is unobservable.
	active []*txn
}

// New creates a SONTM engine. Its read-phase slack is L1Latency: the
// writer commit, whose broadcast dooms peers at the committer's park
// position, lies behind at least one write charge of L1Latency or more.
func New(cfg Config) *Engine {
	e := &Engine{cfg: cfg}
	e.Init("SONTM", cfg.Cache, cfg.ReferenceStore, cfg.ReferenceSets, cfg.Cache.L1Latency, cfg.Cache.L1Latency, !cfg.Cache.Reference)
	if cfg.ReferenceStore {
		e.writeNums.SetReference()
		e.readNums.SetReference()
	}
	return e
}

// AuditAccessSets checks eager.Engine.Audit and an empty active list
// after quiescence.
func (e *Engine) AuditAccessSets() error {
	if n := len(e.active); n != 0 {
		return fmt.Errorf("SONTM: %d transactions still active after quiescence", n)
	}
	return e.Audit()
}

// txn is one SONTM transaction attempt.
type txn struct {
	eager.Txn
	e *Engine

	lo, hi uint64 // SON interval, inclusive

	// activeIdx is this transaction's slot in Engine.active while
	// in flight (swap-remove bookkeeping).
	activeIdx int
}

// Begin implements tm.Engine.
func (e *Engine) Begin(t *sched.Thread) tm.Txn {
	tx, _ := e.Recycle(t.ID()).(*txn)
	if tx == nil {
		tx = &txn{e: e}
	}
	tx.lo, tx.hi, tx.activeIdx = 1, maxSON, len(e.active)
	e.active = append(e.active, tx)
	e.Open(&tx.Txn, tx, t)
	return tx
}

// access performs the access to line for a charge through TickHinted
// and returns its latency. Past the inline bound only a hit in this
// core's L1 or L2 may run inside the batched quantum; a miss would reach
// the shared L3, so it fences first and runs at the per-event point.
func (x *txn) access(line mem.Line) uint64 {
	if !x.Thread.Leads() {
		if lat, ok := x.Hier.AccessPrivate(line); ok {
			return lat
		}
		x.Thread.Fence()
	}
	return x.Hier.Access(line)
}

// raiseLo raises the lower bound and clampHi lowers the upper one; the
// interval emptying dooms the txn, reporting the latest line.
func (x *txn) raiseLo(v uint64, line mem.Line) {
	if v > x.lo {
		x.lo = v
	}
	if x.lo > x.hi {
		x.Doomed, x.DoomLine = true, line
	}
}

func (x *txn) clampHi(v uint64, line mem.Line) {
	if v < x.hi {
		x.hi = v
	}
	if x.lo > x.hi {
		x.Doomed, x.DoomLine = true, line
	}
}

// checkDoom unwinds (via the tm abort signal) if the SON interval has
// emptied; used on the Read/Write paths.
func (x *txn) checkDoom() {
	if x.Doomed {
		x.abortDoomed()
		tm.SignalAbort(tm.AbortOrder, x.DoomLine)
	}
}

// abortDoomed aborts a doomed transaction and returns its abort error;
// it stays out of line so that checkDoom inlines under any profile.
//
//go:noinline
func (x *txn) abortDoomed() error {
	x.leave()
	x.Aborted(tm.AbortOrder)
	return &tm.AbortError{Kind: tm.AbortOrder, Line: x.DoomLine}
}

// Read implements tm.Txn: the transaction must serialize after the
// committed writer whose value it reads.
func (x *txn) Read(a mem.Addr) uint64 {
	x.checkDoom()
	x.SpendRead()
	line := mem.LineOf(a)
	// Batchable: the effects below touch this transaction's reader bit,
	// interval and write log, and the write-number and word tables,
	// which change only inside writer commits. A commit fences and
	// audits, and a parked peer's commit lies behind its published slack.
	if x.e.Batch {
		x.Thread.TickHinted(x.access(line))
	} else {
		x.Thread.Tick(x.Hier.Access(line))
	}
	x.TraceRead(a)
	if line != x.LastRead {
		x.AddRead(line)
	}
	x.raiseLo(x.e.writeNums.Load(uint64(line))+1, line)
	x.checkDoom()
	if v, ok := x.Writes.Load(a); ok {
		return v
	}
	return x.e.Words.Load(mem.WordIndex(a))
}

// ReadPromoted implements tm.Txn; SONTM is serializable, so it is an
// ordinary read.
func (x *txn) ReadPromoted(a mem.Addr) uint64 { return x.Read(a) }

// Write implements tm.Txn: the store is logged; the transaction must
// serialize after the last committed writer of the line.
func (x *txn) Write(a mem.Addr, v uint64) {
	x.KeepPromise("Write")
	x.checkDoom()
	line := mem.LineOf(a)
	// From the first write on, the writer commit may follow the very
	// next park, so the thread promises no slack. The write itself
	// batches like a read: it only logs the store and raises this
	// transaction's own lower bound.
	x.Thread.SetSlack(0)
	if x.e.Batch {
		x.Thread.TickHinted(x.access(line))
	} else {
		x.Thread.Tick(x.Hier.Access(line))
	}
	x.TraceWrite(a)
	x.Writes.Store(a, v)
	x.raiseLo(x.e.writeNums.Load(uint64(line))+1, line)
	x.checkDoom()
}

// leave removes the transaction from the active list; eager.Txn's
// Aborted and Committed release the rest.
func (x *txn) leave() {
	a := x.e.active
	last := len(a) - 1
	moved := a[last]
	a[x.activeIdx] = moved
	moved.activeIdx = x.activeIdx
	a[last] = nil
	x.e.active = a[:last]
}

// Abort implements tm.Txn.
func (x *txn) Abort() {
	x.KeepPromise("Abort")
	if !x.Finished {
		x.leave()
		x.Aborted(tm.AbortExplicit)
		x.Thread.Tick(2)
	}
}

// recordReads raises the read history of every line the transaction
// read to son, so future writers serialize after it.
func (x *txn) recordReads(son uint64) {
	for _, line := range x.ReadLines {
		if rn := x.e.readNums.Slot(uint64(line)); son > *rn {
			*rn = son
		}
	}
}

// Commit implements tm.Txn: the transaction picks the smallest SON in its
// interval, serializes after committed readers of its write set, and
// broadcasts the write set so concurrent transactions adjust their own
// intervals (§6.1).
func (x *txn) Commit() error {
	if x.Finished {
		panic("sontm: Commit on finished transaction")
	}
	x.KeepPromise("Commit")
	if x.Doomed {
		return x.abortDoomed()
	}
	if x.Writes.Len() == 0 {
		// Readers commit with their interval.
		x.recordReads(x.lo)
		x.leave()
		x.Committed(true)
		x.Thread.Tick(2)
		return nil
	}

	// The writer commit reads the active list and the read history and
	// broadcasts to peers at this key, so it must run at the per-event
	// point: end any batched quantum of the write phase.
	x.Thread.Fence()

	// Unlike the 2PL baseline, SONTM detects conflicts eagerly during
	// execution, so commits of different transactions have disjoint
	// effects and need no token: the commit's hashing, broadcast and
	// write-back overheads are accumulated and charged to the thread
	// without serializing other committers behind it.
	var cost uint64 = x.e.cfg.CommitOverhead

	// Serialize after every committed reader of the lines we write
	// (the read-history check); the scan cost grows with the number of
	// retained readsets, which tracks concurrency.
	for _, line := range x.Writes.Lines() {
		cost += x.e.cfg.BroadcastCost + x.e.cfg.HistoryCheckCost*uint64(len(x.e.active))
		x.raiseLo(x.e.readNums.Load(uint64(line))+1, line)
	}
	// Writers occupy the next sonGap multiple above their lower bound,
	// leaving room below for overlapping readers to serialize.
	son := (x.lo/sonGap + 1) * sonGap
	if x.Doomed || son > x.hi {
		x.Doomed = true
		return x.abortDoomed()
	}

	// Broadcast the write set: concurrent readers of these lines must
	// serialize before us; concurrent writers after us. These effects
	// execute at the park position of the transaction's last access —
	// the commit cost is charged in one trailing Tick below — which is
	// why a thread promises no slack from its first write on: the doom
	// lands at charge-distance zero from a park. Splitting the charge
	// to land effects later (as core does) would move the broadcast to
	// a different simulated cycle and change figure bytes.
	x.Thread.Interact() // interval broadcast + write-back: per-event interactions
	for _, line := range x.Writes.Lines() {
		for _, other := range x.e.active {
			if other == x || other.Finished {
				continue
			}
			// A transaction that wrote the line must serialize
			// after us; one that read it must serialize before
			// us. A read-modify-write needs both and its
			// interval empties — exactly the Kmeans pattern the
			// paper notes CS cannot help with.
			if other.Writes.Has(line) {
				other.raiseLo(son+1, line)
			}
			if x.e.Readers.Has(other.Slot, line) {
				other.clampHi(son-1, line)
			}
			// A doomed scanner unwinds at its next access instead of
			// reading on: its promised reads are void.
			if other.Doomed {
				other.Revoke()
			}
		}
	}

	// Write back and tag committed writes with the SON in the global
	// write-numbers hashtable.
	cost += x.WriteBack(false)
	for _, line := range x.Writes.Lines() {
		cost += x.e.cfg.HashCost
		if wn := x.e.writeNums.Slot(uint64(line)); son > *wn {
			*wn = son
		}
	}
	x.recordReads(son)
	x.leave()
	x.Committed(false)
	x.Thread.Tick(cost)
	return nil
}
