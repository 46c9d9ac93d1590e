// Package yield is a yieldlint fixture: an engine-defining package whose
// simulated shared-memory accesses must sit behind Tick/Stall yield
// points, directly or through every intra-package caller.
package yield

import (
	"cache"
	"mem"
	"mvm"
	"sched"
	"tm"
)

// Engine implements tm.Engine, so yieldlint checks this package.
type Engine struct {
	sys   *cache.System
	h     *cache.Hierarchy
	mem   *mvm.Memory
	words mem.Dense[uint64]
	lines mem.Paged[uint64]
}

func (e *Engine) Name() string { return "fixture" }
func (e *Engine) Begin() int   { return 0 }

var _ tm.Engine = (*Engine)(nil)

// Read charges in its own body: covered.
func (e *Engine) Read(t *sched.Thread, a mem.Addr) uint64 {
	t.Tick(4)
	v, _ := e.mem.ReadWord(a, 0)
	return v + e.load(a)
}

// Commit charges through Stall: also covered.
func (e *Engine) Commit(t *sched.Thread, a mem.Addr) {
	t.Stall()
	e.mem.Install(a, 0, 1)
}

// load touches the dense table but is only called from charged entry
// points (Read): covered by its callers.
func (e *Engine) load(a mem.Addr) uint64 {
	return e.words.Load(uint64(a))
}

// Probe is an exported entry point that reaches storage through peek
// without ever charging: the touch site is flagged.
func (e *Engine) Probe(a mem.Addr) uint64 {
	return e.peek(a)
}

func (e *Engine) peek(a mem.Addr) uint64 { // want "without a reachable Tick/Stall yield point"
	v, _ := e.mem.ReadWord(a, 0)
	return v
}

// NonTxWrite touches storage in an exported body with no charge: flagged
// even though unexported callers could not save it anyway.
func (e *Engine) NonTxWrite(a mem.Addr, v uint64) { // want "exported entry points must charge in their own body"
	e.words.Store(uint64(a), v)
}

// Audit is a deliberate exception: end-of-run verification outside the
// scheduled region.
//
//sitm:allow(yieldlint) fixture: quiescent verification scan off the scheduled path
func (e *Engine) Audit(a mem.Addr) uint64 {
	v, _ := e.mem.ReadWord(a, 0)
	return v
}

// spinA and spinB form an uncharged call cycle that touches storage: a
// cycle with no charged root stays uncovered.
func (e *Engine) spinA(a mem.Addr, n int) uint64 { // want "without a reachable Tick/Stall yield point"
	if n == 0 {
		return e.words.Load(uint64(a))
	}
	return e.spinB(a, n-1)
}

func (e *Engine) spinB(a mem.Addr, n int) uint64 {
	return e.spinA(a, n)
}

// ReadHinted charges through the batched hint API: TickHinted behaves
// exactly like Tick under the reference conductors, so it covers the
// touch.
func (e *Engine) ReadHinted(t *sched.Thread, a mem.Addr) uint64 {
	t.TickHinted(4)
	v, _ := e.mem.ReadWord(a, 0)
	return v
}

// Backoff charges through LocalTick: also a covering charge.
func (e *Engine) Backoff(t *sched.Thread, a mem.Addr) uint64 {
	t.LocalTick(16)
	return e.words.Load(uint64(a))
}

// FencedPeek only fences: Fence charges nothing and never yields under
// the reference conductors, so the touch is still uncovered.
func (e *Engine) FencedPeek(t *sched.Thread, a mem.Addr) uint64 { // want "exported entry points must charge in their own body"
	t.Fence()
	v, _ := e.mem.ReadWord(a, 0)
	return v
}

// Stats touches no storage: metadata calls are not accesses.
func (e *Engine) Stats() int { return e.mem.Stats() }

// SumCharged walks the paged table behind a charge: Scan is a touch,
// and the Tick covers it.
func (e *Engine) SumCharged(t *sched.Thread) uint64 {
	t.Tick(4)
	var sum uint64
	e.lines.Scan(0, 1<<20, func(_ uint64, run []uint64) { sum += run[0] })
	return sum
}

// SumUncharged walks the paged table from an exported body with no
// charge: the bulk touch is flagged like any point access.
func (e *Engine) SumUncharged() uint64 { // want "exported entry points must charge in their own body"
	var sum uint64
	e.lines.Scan(0, 1<<20, func(_ uint64, run []uint64) { sum += run[0] })
	return sum
}

// AuditLines is the sanctioned quiescent form, like the engines' real
// end-of-run audits over their paged tables.
//
//sitm:allow(yieldlint) fixture: quiescent verification scan off the scheduled path
func (e *Engine) AuditLines() uint64 {
	var sum uint64
	e.lines.Scan(0, 1<<20, func(_ uint64, run []uint64) { sum += run[0] })
	return sum
}

// VerifyUncharged sums memory through the ranged non-transactional scan
// from an exported body with no charge: flagged like a point access.
func (e *Engine) VerifyUncharged(lo, hi mem.Addr) uint64 { // want "exported entry points must charge in their own body"
	var sum uint64
	e.mem.NonTxScan(lo, hi, func(_ mem.Addr, v uint64) { sum += v })
	return sum
}

// NonTxScan is the sanctioned quiescent form, like the engines' real
// NonTxScan.
//
//sitm:allow(yieldlint) fixture: verification API, called after every simulated thread has finished
func (e *Engine) NonTxScan(lo, hi mem.Addr, f func(a mem.Addr, v uint64)) {
	e.mem.NonTxScan(lo, hi, f)
}

// PrivatePeek certifies a private hit without charging it: a private
// cache access is a touch like any other.
func (e *Engine) PrivatePeek(line mem.Line) bool { // want "exported entry points must charge in their own body"
	_, ok := e.h.AccessPrivate(line)
	return ok
}

// CommitCharged publishes behind its commit charge: covered.
func (e *Engine) CommitCharged(t *sched.Thread, line mem.Line) {
	t.Tick(e.h.Access(line))
	e.sys.Publish(0, line)
}

// publishQuiet publishes with no charge on any path to it: the publish
// invalidates other cores' caches, so it is flagged.
func (e *Engine) publishQuiet(line mem.Line) { // want "without a reachable Tick/Stall yield point"
	e.sys.Publish(0, line)
}
