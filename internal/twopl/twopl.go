// Package twopl implements the paper's first baseline (§6.1): a
// state-of-the-art HTM with two-phase-locking semantics — eager conflict
// detection with a "requester wins" policy and lazy version management.
// It adds to the shared eager HTM (internal/eager) the 2PL conflict rule,
// the per-line writer table, the commit token and interrupt injection.
//
// Conflicts are detected at every transactional access, modelling the
// coherency broadcast: a get-shared read aborts the line's writer; a
// get-exclusive write aborts every other reader and writer of the line.
// Read and write sets are exact: read holds are eager.Engine.Readers'
// bitmaps and the writer hold is one pointer per line. Commits serialize
// on a commit token and write the log back to memory.
//
// A transaction that has written nothing can batch its reads under the
// conductor's horizon (sched.Thread.TickHinted): its next get-exclusive
// or commit lies behind at least one more access charge, so it publishes
// L1Latency + BroadcastCost cycles of interaction slack until its first
// write, and as much again for each read it has promised
// (tm.Txn.PromiseReads). A get-exclusive that dooms a promising reader
// revokes its promise. Reads that would doom a writer, writes and
// commits stay per event (DESIGN.md "Horizon batching").
package twopl

import (
	"fmt"
	"math"
	"math/bits"

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
	// ReferenceSets (write logs in aset.LineMap's map-backed reference
	// mode) and ReferenceStore (dense tables) select the differential
	// oracles; results are identical.
	ReferenceSets, ReferenceStore bool
}

// DefaultConfig returns the evaluated configuration: idealised unbounded
// version buffers and no interrupts, matching the paper's baseline model.
func DefaultConfig() Config {
	return Config{Cache: cache.DefaultConfig(), BroadcastCost: 2, CommitOverhead: 10, InterruptCost: 200}
}

// Engine is the 2PL baseline.
type Engine struct {
	eager.Engine
	cfg Config
	// writers holds each line's live writer, nil when none.
	writers mem.Paged[*eager.Txn]

	commitBusy  bool
	accessCount int
}

// New creates a 2PL engine. The batched path also needs interrupts off:
// their engine-wide access counter is order-sensitive.
func New(cfg Config) *Engine {
	e := &Engine{cfg: cfg}
	access := cfg.Cache.L1Latency + cfg.BroadcastCost
	e.Init("2PL", cfg.Cache, cfg.ReferenceStore, cfg.ReferenceSets, access, access,
		!cfg.Cache.Reference && cfg.InterruptPeriod <= 0)
	if cfg.ReferenceStore {
		e.writers.SetReference()
	}
	return e
}

// AuditAccessSets checks eager.Engine.Audit and that no line holds a
// writer after quiescence.
//
//sitm:allow(yieldlint) quiescent audit scan, runs after every simulated thread has finished
func (e *Engine) AuditAccessSets() error {
	err := e.Audit()
	e.writers.Scan(0, math.MaxUint64, func(first uint64, run []*eager.Txn) {
		for j, w := range run {
			if err == nil && w != nil {
				err = fmt.Errorf("2PL: line %d holds a writer after quiescence", first+uint64(j))
			}
		}
	})
	return err
}

// txn is one 2PL transaction attempt.
type txn struct {
	eager.Txn
	e *Engine
}

// Begin implements tm.Engine.
func (e *Engine) Begin(t *sched.Thread) tm.Txn {
	tx, _ := e.Recycle(t.ID()).(*txn)
	if tx == nil {
		tx = &txn{e: e}
	}
	e.Open(&tx.Txn, tx, t)
	return tx
}

// access performs the access to line and returns its latency, and
// whether the caller may charge it through TickHinted: a batchable access
// may if the thread still leads or this core's L1 or L2 serves it. Any
// other access fences first and is charged per event, since after the
// fence's yield the caller's certificate may be stale.
func (x *txn) access(line mem.Line, batchable bool) (uint64, bool) {
	if batchable {
		if x.Thread.Leads() {
			return x.Hier.Access(line), true
		}
		if lat, ok := x.Hier.AccessPrivate(line); ok {
			return lat, true
		}
	}
	x.Thread.Fence()
	return x.Hier.Access(line), false
}

// checkDoom unwinds the transaction if a requester doomed it; used on
// the Read/Write paths.
func (x *txn) checkDoom() {
	if x.Doomed {
		x.unwind(x.DoomKind, x.DoomLine)
	}
}

// unwind aborts the transaction and unwinds it via the tm abort signal;
// it stays out of line so that checkDoom inlines under any profile.
//
//go:noinline
func (x *txn) unwind(kind tm.AbortKind, line mem.Line) {
	x.dropWrites()
	x.Aborted(kind)
	tm.SignalAbort(kind, line)
}

// abortDoomed aborts a doomed transaction and returns its abort error;
// used on the Commit path, which reports aborts as error values.
func (x *txn) abortDoomed() error {
	x.dropWrites()
	x.Aborted(x.DoomKind)
	return &tm.AbortError{Kind: x.DoomKind, Line: x.DoomLine}
}

// maybeInterrupt injects a periodic interrupt: a cache-buffered
// transaction cannot survive the context switch and aborts (§4.3). Only
// the enabled check inlines into Read and Write.
func (x *txn) maybeInterrupt(line mem.Line) {
	if x.e.cfg.InterruptPeriod > 0 {
		x.interrupt(line)
	}
}

func (x *txn) interrupt(line mem.Line) {
	if x.e.accessCount++; x.e.accessCount%x.e.cfg.InterruptPeriod == 0 {
		x.Thread.Tick(x.e.cfg.InterruptCost)
		x.unwind(tm.AbortInterrupt, line)
	}
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
	x.SpendRead()
	lat, hinted := x.access(line, x.e.Batch && x.Writes.Len() == 0 && x.e.writers.Load(uint64(line)) == nil)
	if hinted {
		x.Thread.TickHinted(lat + x.e.cfg.BroadcastCost)
	} else {
		x.Thread.Tick(lat + x.e.cfg.BroadcastCost)
	}
	x.TraceRead(a)
	// Re-load the writer: one may have taken the line while the charge
	// yielded, and dooming it happens at the per-event point (a batched
	// charge found no writer and did not yield).
	if w := x.e.writers.Load(uint64(line)); w != nil && w != &x.Txn {
		w.Doom(tm.AbortReadWrite, line)
	}
	if line != x.LastRead {
		x.AddRead(line)
	}
	if v, ok := x.Writes.Load(a); ok {
		return v
	}
	return x.e.Words.Load(mem.WordIndex(a))
}

// ReadPromoted implements tm.Txn; under 2PL it is an ordinary read.
func (x *txn) ReadPromoted(a mem.Addr) uint64 { return x.Read(a) }

// Write implements tm.Txn: a get-exclusive broadcast aborts every other
// reader and writer of the line, then the store is logged.
func (x *txn) Write(a mem.Addr, v uint64) {
	x.KeepPromise("Write")
	x.checkDoom()
	line := mem.LineOf(a)
	x.maybeInterrupt(line)
	// The get-exclusive dooms other transactions right after this
	// charge, and so may every later access and the commit: from the
	// first write on the thread promises no slack.
	x.Thread.SetSlack(0)
	x.Thread.Fence()
	x.Thread.Tick(x.Hier.Access(line) + x.e.cfg.BroadcastCost)
	x.TraceWrite(a)
	// Version-buffer overflow (§4.3): the L1-resident speculative state
	// cannot exceed the buffer; the transaction aborts.
	if n := x.e.cfg.VersionBufferLines; n > 0 {
		if !x.Writes.Has(line) && x.Writes.Len() >= n {
			x.unwind(tm.AbortCapacity, line)
		}
	}
	x.Thread.Interact() // get-exclusive broadcast: per-event interaction
	wp := x.e.writers.Slot(uint64(line))
	if w := *wp; w != nil && w != &x.Txn {
		w.Doom(tm.AbortWriteWrite, line)
	}
	for k := 0; k < x.e.Readers.Words(); k++ {
		for b := x.e.Readers.Word(k, line); b != 0; b &= b - 1 {
			if r := x.e.Readers.Owner(k<<6 | bits.TrailingZeros64(b)); r != &x.Txn {
				r.Doom(tm.AbortReadWrite, line)
			}
		}
	}
	*wp = &x.Txn
	x.Writes.Store(a, v)
}

// dropWrites releases the writer holds a later writer has not taken
// over; eager.Txn's Aborted and Committed release the rest.
func (x *txn) dropWrites() {
	for _, line := range x.Writes.Lines() {
		if wp := x.e.writers.Slot(uint64(line)); *wp == &x.Txn {
			*wp = nil
		}
	}
}

// Abort implements tm.Txn: read and write logs are discarded and the
// transaction restarts in software (§6.1).
func (x *txn) Abort() {
	x.KeepPromise("Abort")
	if !x.Finished {
		x.dropWrites()
		x.Aborted(tm.AbortExplicit)
		x.Thread.Tick(2)
	}
}

// Commit implements tm.Txn: the thread obtains the commit token, iterates
// over its write log and commits the speculative writes to main memory
// (§6.1).
func (x *txn) Commit() error {
	if x.Finished {
		panic("twopl: Commit on finished transaction")
	}
	x.KeepPromise("Commit")
	if x.Doomed {
		return x.abortDoomed()
	}
	if x.Writes.Len() == 0 {
		x.Committed(true)
		x.Thread.Tick(2)
		return nil
	}
	// The slack is already zero and the transaction stopped batching at
	// its first write; the fence keeps the order-sensitive token and
	// write-back at the per-event point without relying on that.
	x.Thread.Fence()
	for x.e.commitBusy {
		x.e.Stats().Stalls++
		x.Thread.Stall()
		if x.Doomed {
			return x.abortDoomed()
		}
	}
	x.e.commitBusy = true
	x.Thread.Tick(x.e.cfg.CommitOverhead)
	if x.Doomed { // a requester may have doomed us while ticking
		x.e.commitBusy = false
		x.Thread.WakeAll()
		return x.abortDoomed()
	}
	x.Thread.Interact() // write-back + invalidations: per-event interactions
	x.WriteBack(true)
	x.e.commitBusy = false
	x.dropWrites()
	x.Committed(false)
	x.Thread.WakeAll()
	return nil
}
