// Package eager holds the transaction lifecycle every engine shares and
// the eager HTM the paper's two baselines (§6.1) share. Base and Attempt
// are the engine-generic half: the memory system, stats, tracer,
// batching switch, per-thread recycling, and per attempt the thread,
// hierarchy, write log and outcome accounting. SI-TM (internal/core)
// embeds them directly. Engine and Txn add the eager half: the word
// store, reader bitmaps, read lines and doom state. 2PL (internal/twopl)
// and SONTM (internal/sontm) differ only in their conflict rule, so each
// embeds Engine and Txn by value and adds its rule's tables, Read, Write
// and Commit; the calls stay static and inlinable (DESIGN.md "One
// transaction lifecycle").
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
	Base
	Words   mem.Paged[uint64]    // committed value per word
	Readers aset.ReadHolds[*Txn] // live readers per line, a bitmap over slots
}

// Init is Base.Init plus the reference backing of the word store and
// reader bitmaps. readSlack is the slack a thread publishes while its
// transaction has written nothing, readCharge the smallest read charge.
func (e *Engine) Init(name string, c cache.Config, referenceStore, referenceSets bool, readSlack, readCharge uint64, batchable bool) {
	e.Base.Init(name, c, referenceStore, referenceSets, readSlack, readCharge, batchable)
	if referenceStore {
		e.Words.SetReference()
		e.Readers.SetReference()
	}
}

// Promote implements tm.Engine. Both baselines are serializable, so
// promotion is a no-op: there is no write skew to repair.
func (e *Engine) Promote(string) {}

// NonTxRead implements tm.Engine.
//
//sitm:allow(yieldlint) workload setup/verification API, called before threads start or after they quiesce
func (e *Engine) NonTxRead(a mem.Addr) uint64 { return e.Words.Load(mem.WordIndex(a)) }

// NonTxWrite implements tm.Engine.
//
//sitm:allow(yieldlint) workload setup/verification API, called before threads start or after they quiesce
func (e *Engine) NonTxWrite(a mem.Addr, v uint64) { *e.Words.Slot(mem.WordIndex(a)) = v }

// NonTxScan implements tm.Engine: the non-zero words on the word
// store's allocated pages.
//
//sitm:allow(yieldlint) workload setup/verification API, called before threads start or after they quiesce
func (e *Engine) NonTxScan(lo, hi mem.Addr, f func(a mem.Addr, v uint64)) {
	first, end := mem.WordSpan(lo, hi)
	e.Words.Scan(first, end, func(w uint64, run []uint64) {
		for j, v := range run {
			if v != 0 {
				f(mem.Addr((w+uint64(j))*mem.WordBytes), v)
			}
		}
	})
}

// Audit is the shared half of the baselines' AuditAccessSets: Base.Audit,
// and no reader bit or slot held.
func (e *Engine) Audit() error {
	if err := e.Base.Audit(); err != nil {
		return err
	}
	if err := e.Readers.Audit(); err != nil {
		return fmt.Errorf("%s: %v after quiescence", e.Name(), err)
	}
	return nil
}

// Open starts attempt x, the eager half of baseline transaction self, on
// thread t (see Base.Open).
func (e *Engine) Open(x *Txn, self tm.Txn, t *sched.Thread) {
	x.e = e
	x.LastRead = NoLine
	x.Doomed, x.DoomKind, x.DoomLine = false, 0, 0
	x.Slot = e.Readers.Take(x)
	e.Base.Open(&x.Attempt, self, t)
}

// NoLine is the LastRead sentinel: no real line has this number.
const NoLine = ^mem.Line(0)

// Txn is the state of one eager transaction attempt.
type Txn struct {
	Attempt
	e *Engine
	// Slot is this transaction's bit in the reader bitmaps; ReadLines
	// lists the lines it set, and LastRead memoises the previous read's
	// line, whose repeat skips AddRead.
	Slot      int
	ReadLines []mem.Line
	LastRead  mem.Line

	Doomed   bool
	DoomKind tm.AbortKind
	DoomLine mem.Line
}

// Doom marks the transaction aborted by a peer's conflict on line and
// revokes its promised reads; the first doom is the one reported.
func (x *Txn) Doom(kind tm.AbortKind, line mem.Line) {
	if !x.Doomed {
		x.Doomed, x.DoomKind, x.DoomLine = true, kind, line
		x.Revoke()
	}
}

// Leaks reports read lines a finished attempt kept (see Base.Audit).
func (x *Txn) Leaks() error {
	if n := len(x.ReadLines); n != 0 {
		return fmt.Errorf("leaked %d read lines", n)
	}
	return nil
}

// AddRead registers a read of line, which is not LastRead: it sets the
// reader bit and lists the line on its first read.
func (x *Txn) AddRead(line mem.Line) {
	if x.e.Readers.Add(x.Slot, line) {
		x.ReadLines = append(x.ReadLines, line)
	}
	x.LastRead = line
}

// Aborted and Committed release the reader bits once the baseline has
// dropped its own holds, then finish the attempt (see Attempt.Aborted).
func (x *Txn) Aborted(kind tm.AbortKind) {
	x.release()
	x.Attempt.Aborted(kind)
}

func (x *Txn) Committed(readOnly bool) {
	x.release()
	x.Attempt.Committed(readOnly)
}

// release frees the reader bits and slot and resets the read lines,
// keeping their capacity.
func (x *Txn) release() {
	x.e.Readers.Release(x.Slot, x.ReadLines)
	x.ReadLines = x.ReadLines[:0]
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
