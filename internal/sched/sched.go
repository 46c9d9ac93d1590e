// Package sched implements a deterministic discrete-event machine simulator.
//
// It stands in for the ZSim cycle-accurate simulator used by the SI-TM paper
// (Litz et al., ASPLOS 2014). The simulator models N logical hardware
// threads, each with a monotonically increasing cycle counter. The
// conductor — the resume loop of RunChoose, or under Run the
// handing-off thread itself — always resumes the runnable thread with the
// lowest cycle count (ties broken by thread ID), so operation streams
// from different threads interleave in simulated time exactly as they
// would in an event-driven architectural simulator. Given the same seed
// and workload, a simulation is fully deterministic.
//
// Exactly one logical thread executes at any instant. Threads are
// iter.Pull coroutines, not free-running goroutines: a handoff is a
// direct coroutine switch on the same OS thread — no runtime scheduler
// locks, no park/unpark, no cross-P wakeup — and the runtime's coroutine
// switch establishes the happens-before edges, so shared engine state
// needs no additional locking and the race detector stays quiet. Under
// Run every thread is its own conductor and switches straight into the
// next thread; under RunChoose the thread switches back to the
// conductor's loop, which switches into the next.
//
// Run keeps the threads in a winner tree keyed on (cycles, id) and lets
// Tick return inline — no coroutine switch at all — while the charging
// thread is still ordered before every other runnable thread (their
// counters are frozen while parked, so the minimum over the other leaves
// is a sound bound). The interleaving is provably the one the per-Tick
// conductor would have chosen. RunChoose with DefaultChooser retains that
// original conductor — a coroutine handoff on every charge and a scan of
// the runnable threads per yield — as the differential oracle.
package sched

import (
	"fmt"
	"iter"
	"math"
	"runtime"
)

// MaxThreads is the largest thread count New accepts; sitm-bench's
// -threads flag and sweep plans are checked against it before any
// simulation starts.
const MaxThreads = 1024

// Thread is one logical hardware thread of the simulated machine. All
// simulated work — transactional memory operations, local computation,
// backoff — is charged to its cycle counter via Tick.
type Thread struct {
	id     int
	sim    *Sim
	cycles uint64
	rng    *Rand

	// slack is the thread's published interaction slack: a promise that,
	// from any point where the thread is parked, it will charge strictly
	// more than slack cycles before performing its next non-commuting
	// effect on simulated shared state (an MVM install or revert, a cache
	// invalidation, a presence drain). The horizon conductor uses parked
	// threads' slacks to extend another thread's quantum past their cycle
	// counters; see TickHinted. Zero — the default — promises nothing.
	// Only the thread itself sets it (SetSlack), except that a peer may
	// lower it while it is parked (RevokeSlack).
	slack uint64

	// yield and resume are the two ends of the thread's iter.Pull
	// coroutine, rebuilt by start for every Run/RunChoose invocation.
	// Under RunChoose the thread yields to the conductor's resume
	// call. Under Run the coroutine is one of the slots of Sim.in:
	// resumed marks that the goroutine parked in it entered through
	// resume, so it is woken through yield, and otherwise through resume.
	yield   func(struct{}) bool
	resume  func() (struct{}, bool)
	resumed bool
	done    bool
	stalled bool
	// held marks a stall that WakeAll skips: a barrier waiter, which
	// only the barrier's release unparks (see hold and Sim.unhold).
	held bool
}

// ID returns the thread's index in [0, NumThreads).
func (t *Thread) ID() int { return t.id }

// Cycles returns the simulated cycles consumed by the thread so far.
func (t *Thread) Cycles() uint64 { return t.cycles }

// Rand returns the thread's deterministic random number generator.
func (t *Thread) Rand() *Rand { return t.rng }

// Leads reports whether the running thread is still ordered before every
// other runnable thread — strictly lower cycles, or equal cycles and lower
// ID — so the conductor would resume it immediately, and an effect it
// performs now lands exactly where the per-event conductor would place
// it. It is the single inline check of Run's charges. Past that bound
// the thread is inside a batched quantum, and only effects certified
// non-interacting may run before the next Fence or yield (see
// TickHinted). Outside Run the limit is zero, so it reports false and
// every charge reaches the reference conductors.
func (t *Thread) Leads() bool { return t.cycles < t.sim.limit }

// suspend hands control on until the thread is resumed. Under Run it
// replays the thread's leaf, binds the new root and switches straight
// into it; under the reference conductors it yields to their loop.
func (t *Thread) suspend() {
	s := t.sim
	if !s.fast {
		if !t.yield(struct{}{}) {
			panic("sched: thread resumed after its conductor stopped")
		}
		return
	}
	s.replay(t)
	if next := s.next(t.id); next != t.id {
		s.handoff(t.id, next)
	}
}

// inline ends a per-event charge: it returns inline (counting it) while
// the thread still leads and otherwise hands off (see suspend). It is
// kept out of line so that Tick and LocalTick stay within the
// compiler's inlining budget: a charge then costs its caller one call.
//
//go:noinline
func (t *Thread) inline() {
	if t.Leads() {
		t.sim.stats.InlineTicks++
		return
	}
	t.suspend()
}

// Tick charges c simulated cycles to the thread and yields to the
// conductor, which may switch to another thread whose cycle counter is now
// lower. Every modelled operation must Tick at least once so that the
// interleaving reflects simulated time.
//
// Under Run's tree conductor the yield is usually free: while the charging
// thread still leads, the conductor would resume it immediately, so Tick
// returns inline without even a coroutine switch. Parked threads' counters
// cannot change (only the running thread charges cycles; WakeAll replays
// woken threads with their advanced clocks and re-derives the bound), so
// the bound taken at resume stays sound.
func (t *Thread) Tick(c uint64) {
	t.cycles += c
	t.inline()
}

// LocalTick charges c simulated cycles for work that is purely
// thread-local: the inter-yield segment it covers performs no effect on
// simulated shared state at all (workload think time, backoff delays).
// Under the tree conductor it is a pure counter charge — no bound check,
// no yield — because a charge with no attached effects commutes with
// every other thread's events: delaying the handoff cannot change what
// any thread observes. Under the reference conductor (RunChoose) and in
// per-event mode it behaves exactly like Tick, so the differential
// oracles and the model checker see an unchanged per-event machine.
//
// The caller must not touch simulated shared state between a LocalTick
// and the next Tick, TickHinted, Fence or Stall unless that touch is
// itself certified commuting (see TickHinted); tm.Atomic fences before
// Engine.Begin so transaction boundaries re-synchronise automatically.
func (t *Thread) LocalTick(c uint64) {
	t.cycles += c
	if s := t.sim; s.batch {
		s.stats.LocalTicks++
		return
	}
	t.inline()
}

// TickHinted charges c simulated cycles for an event the caller has
// certified non-interacting: until the thread's next Tick, TickHinted,
// Fence or Stall it will only perform effects that commute with anything
// a parked thread could do inside the horizon — blind presence ORs,
// private L1/L2 cache hits (state no other thread writes except through
// commit invalidations, which lie beyond the horizon), snapshot reads
// whose outcome is pinned by the parked threads' published slacks, and
// pure local work.
//
// Under the tree conductor it first takes Tick's inline path (the thread
// still leads). Past that bound it may *batch*: if the post-charge key is
// still strictly below the horizon — the minimum over parked runnable
// threads of (frozen cycle counter + published slack) — the thread keeps
// running inline, because no parked thread can perform a non-commuting
// effect below that bound (Thread.slack) and the batched events
// themselves were certified commuting by the caller. Otherwise it yields
// like Tick. Under the reference conductors and in per-event mode it is
// exactly Tick.
func (t *Thread) TickHinted(c uint64) {
	t.cycles += c
	s := t.sim
	if t.Leads() {
		s.stats.InlineTicks++
		return
	}
	// The horizon is at most the inline bound plus the largest slack
	// published in this run (a parked thread with the lowest counter
	// bounds both), so a charge that overshoots the bound by that much
	// cannot batch and skips the horizon walk.
	if s.batch && t.cycles-s.limit < s.maxSlack && t.cycles < s.horizon() {
		s.stats.BatchedEvents++
		if t.cycles > s.maxBatchedKey {
			s.maxBatchedKey = t.cycles
		}
		return
	}
	t.suspend()
}

// Fence ends any batched quantum: under the tree conductor it yields if
// the thread no longer leads (exactly Tick(0)); everywhere else — the
// reference conductors, per-event mode, or a thread that still leads —
// it is a no-op. Call it before an effect that does not commute with
// parked threads' events when the preceding charges went through
// LocalTick/TickHinted; tm.Atomic fences once per attempt, which covers
// every engine's Begin-side clock and stall logic.
func (t *Thread) Fence() {
	if t.sim.batch && !t.Leads() {
		t.suspend()
	}
}

// SetSlack publishes the calling thread's interaction slack: a promise
// that from any parked position it will charge strictly more than s
// cycles before its next non-commuting shared-state effect. Engines set
// it at phase boundaries (e.g. SI-TM holds CommitOverhead outside the
// writer-commit critical section and zero inside it) and while a
// transaction's promised reads are outstanding (tm.Txn.PromiseReads).
// They set only their own thread's slack, with one exception:
// RevokeSlack, when a peer's effect breaks a parked thread's promise. A
// stale promise is caught by Interact.
func (t *Thread) SetSlack(s uint64) {
	t.slack = s
	if s > t.sim.maxSlack {
		t.sim.maxSlack = s
	}
}

// RevokeSlack lowers parked thread t's published slack to s, for the
// running thread whose effect just voided t's promise: an engine calls it
// when it dooms a transaction whose thread published slack for reads it
// will no longer perform. The running thread runs per event at such an
// effect, so every key batched so far lies below it; only quanta granted
// from now on need the lower slack, so t's leaf is re-keyed and the
// running thread's cached horizon dropped. A slack already at or below s
// is left as it is.
func (t *Thread) RevokeSlack(s uint64) {
	if s >= t.slack {
		return
	}
	t.slack = s
	if sim := t.sim; sim.fast {
		if t.id == sim.cur {
			panic(fmt.Sprintf("sched: thread %d revokes its own slack; it sets it with SetSlack", t.id))
		}
		sim.replay(t)
		sim.horizonOK = false
	}
}

// Slack returns the thread's published interaction slack.
func (t *Thread) Slack() uint64 { return t.slack }

// Interact is the audit hook guarding the horizon machinery: engines call
// it at every non-commuting shared-state effect (installs, invalidations,
// presence drains, reverts). If any thread has already batched an event
// at a simulated key above the caller's current key, the conductor
// admitted an interleaving the per-event machine would have ordered
// differently — a stale slack promise — and the simulation is unsound,
// so Interact panics rather than let the divergence propagate silently.
func (t *Thread) Interact() {
	s := t.sim
	if t.cycles < s.maxBatchedKey {
		panic(fmt.Sprintf(
			"sched: thread %d interacts with shared state at cycle %d below the batched horizon %d — a published slack promise was stale",
			t.id, t.cycles, s.maxBatchedKey))
	}
}

// WakeAll unparks every stalled thread of the machine but the held
// ones, advancing their clocks to this thread's clock (see Sim.WakeAll).
func (t *Thread) WakeAll() { t.sim.WakeAll(t) }

// Stall parks the thread until another thread calls Sim.WakeAll. It models
// a hardware stall (e.g. a transaction waiting for the commit window). The
// thread's clock is advanced to the waker's clock on wakeup so stalled time
// is accounted for. Stalling always hands control to the conductor — the
// inline fast path applies only to Tick, where the thread stays runnable.
func (t *Thread) Stall() {
	t.stalled = true
	t.suspend()
}

// hold parks the thread in a held stall: WakeAll skips it, and only the
// running thread's Sim.unhold makes it runnable again. While held it has
// no leaf in the tree, so it bounds neither a peer's inline limit nor
// its horizon.
func (t *Thread) hold() {
	t.held = true
	t.Stall()
}

// node is one winner-tree node: the lowest counter among the runnable
// threads of its subtree, the thread holding it (the lowest ID on ties),
// and the subtree's lowest cycles+slack.
type node struct {
	cycles uint64
	reach  uint64
	id     int32
}

// vacant is the counter of a leaf without a runnable thread (stalled,
// finished or padding). Thread counters stay below it (see replay), so
// it orders after every thread and vacant+1 cannot overflow.
const vacant = math.MaxUint64 - 1

// Sim is the machine: a set of logical threads and the conductor that
// interleaves them deterministically in simulated time.
type Sim struct {
	threads []*Thread
	seed    uint64

	// tree is Run's winner tree over thread slots: node 1 is the root,
	// node k's children are 2k and 2k+1, and thread i's leaf is node
	// leaves+i, with the leaf count padded to a power of two. A left
	// subtree holds only lower IDs than its right sibling, so ties go
	// left and no node needs to compare IDs. The running thread keeps
	// its stale leaf until it hands off.
	tree   []node
	leaves int

	// cur is the running thread's ID under Run and limit its inline
	// bound: the first cycle count at which it no longer leads (see
	// Leads). limit is zero outside Run, so RunChoose sees every
	// charge. horizonMin caches the running thread's horizon while
	// horizonOK; bind and WakeAll clear it.
	cur        int
	limit      uint64
	horizonMin uint64
	horizonOK  bool

	// fast is set while Run's tree conductor is driving; batch while it
	// drives with the horizon-batching extensions (fast and not perEvent).
	fast, batch bool

	// perEvent disables the horizon batching extensions while keeping the
	// tree conductor: LocalTick and TickHinted degrade to exactly Tick and
	// Fence to a no-op, reproducing the pre-horizon per-event conductor.
	// It is the differential baseline for the batched path.
	perEvent bool

	// maxBatchedKey is the highest simulated key at which any thread has
	// batched an event past its inline bound; Interact audits against it.
	maxBatchedKey uint64
	// maxSlack is the largest slack any thread has published since the
	// run started, an upper bound on every leaf's reach past its counter.
	maxSlack uint64

	stats Stats

	// live counts Run's threads whose body has not returned. in is
	// Run's slot table: in[g] is the thread whose coroutine goroutine g
	// is parked in, where g is a thread ID or caller() for Run's caller.
	// forwards counts the handoffs a woken goroutine passed on after a
	// body exit (see handoff); failed and failure hold a body's panic
	// value, or nil for runtime.Goexit, for Run's caller to re-raise.
	live     int
	in       []int32
	forwards int
	failed   bool
	failure  any
}

// Stats counts conductor work for one Run/RunChoose invocation; reset at the
// start of each. It quantifies the coroutine-switch tax the horizon
// batching attacks (surfaced as the sched_stats section of
// sitm-bench -json).
type Stats struct {
	// CoroutineSwitches is the number of thread resumes the conductor
	// performed. Under Run a resume is one Go-runtime coroutine switch,
	// straight from the suspending thread into the next; under RunChoose
	// it is two, into the thread and back to the conductor.
	CoroutineSwitches uint64 `json:"coroutine_switches"`
	// InlineTicks counts charges that returned inline while the thread
	// still led every other runnable thread (the PR 3 fast path).
	InlineTicks uint64 `json:"inline_ticks"`
	// BatchedEvents counts charges that returned inline past that bound
	// because they stayed below the horizon (multi-event quanta).
	BatchedEvents uint64 `json:"batched_events"`
	// LocalTicks counts pure thread-local charges that skipped the
	// conductor entirely.
	LocalTicks uint64 `json:"local_ticks"`
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.CoroutineSwitches += other.CoroutineSwitches
	s.InlineTicks += other.InlineTicks
	s.BatchedEvents += other.BatchedEvents
	s.LocalTicks += other.LocalTicks
}

// Stats returns the conductor counters of the last Run/RunChoose
// invocation.
func (s *Sim) Stats() Stats { return s.stats }

// SetPerEvent toggles per-event mode: with on, the tree conductor runs
// every charge through the pre-horizon per-event protocol (LocalTick and
// TickHinted behave exactly like Tick), providing the differential
// baseline the batched conductor is pinned against.
func (s *Sim) SetPerEvent(on bool) { s.perEvent = on }

// horizon returns the running thread's horizon — the minimum reach over
// every other leaf, i.e. over the sibling nodes on its leaf-to-root path
// — computing it at most once per quantum. A parked thread's counter is
// frozen and its slack is rewritten only by itself (so not while parked)
// or lowered by RevokeSlack, which drops the cached value; it is
// otherwise exact until the next handoff or WakeAll.
func (s *Sim) horizon() uint64 {
	if !s.horizonOK {
		h := uint64(math.MaxUint64)
		for i := s.leaves + s.cur; i > 1; i >>= 1 {
			h = min(h, s.tree[i^1].reach)
		}
		s.horizonMin, s.horizonOK = h, true
	}
	return s.horizonMin
}

// New creates a machine with n logical threads, 1 <= n <= MaxThreads.
// The seed makes every per-thread RNG, and therefore the whole
// simulation, deterministic.
func New(n int, seed uint64) *Sim {
	if n <= 0 || n > MaxThreads {
		panic(fmt.Sprintf("sched: invalid thread count %d (want 1..%d)", n, MaxThreads))
	}
	s := &Sim{seed: seed, leaves: 1, in: make([]int32, n+1)}
	for s.leaves < n {
		s.leaves *= 2
	}
	s.tree = make([]node, 2*s.leaves)
	for i := 0; i < n; i++ {
		s.threads = append(s.threads, &Thread{
			id:  i,
			sim: s,
			rng: NewRand(seed*0x9E3779B97F4A7C15 + uint64(i+1)),
		})
	}
	return s
}

// NumThreads returns the number of logical threads.
func (s *Sim) NumThreads() int { return len(s.threads) }

// Thread returns logical thread i.
func (s *Sim) Thread(i int) *Thread { return s.threads[i] }

// Makespan returns the simulated completion time of the machine: the
// maximum cycle counter across threads. Call after Run.
func (s *Sim) Makespan() uint64 {
	var m uint64
	for _, t := range s.threads {
		if t.cycles > m {
			m = t.cycles
		}
	}
	return m
}

// TotalCycles returns the sum of all per-thread cycle counters.
func (s *Sim) TotalCycles() uint64 {
	var m uint64
	for _, t := range s.threads {
		m += t.cycles
	}
	return m
}

// WakeAll unparks every stalled thread but the held ones (barrier
// waiters), advancing their clocks to the caller's clock so that waiting
// time is charged. Under the tree conductor the woken threads' leaves
// are replayed with their advanced (and from then on frozen) counters,
// and the waker's inline bound is re-derived: a woken thread at the
// waker's clock with a lower ID now leads it.
func (s *Sim) WakeAll(waker *Thread) {
	woke := false
	for _, t := range s.threads {
		if t.stalled && !t.held {
			t.stalled = false
			if t.cycles < waker.cycles {
				t.cycles = waker.cycles
			}
			if s.fast {
				s.replay(t)
				woke = true
			}
		}
	}
	if woke {
		s.bind(waker)
	}
}

// unhold makes held thread t runnable at cycle c for rel, the running
// thread that releases it. Under the tree conductor t's leaf is replayed
// and rel rebound, as in WakeAll: t may now bound rel's inline limit.
func (s *Sim) unhold(t *Thread, c uint64, rel *Thread) {
	t.held, t.stalled, t.cycles = false, false, c
	if s.fast {
		s.replay(t)
		s.bind(rel)
	}
}

// replay rewrites t's leaf — its counter and reach if runnable, vacant
// if stalled or done — and every node on the path to the root. A counter
// that reaches vacant could no longer be ordered against vacant leaves,
// so it panics instead of misordering.
func (s *Sim) replay(t *Thread) {
	n := node{cycles: vacant, reach: math.MaxUint64, id: int32(t.id)}
	if !t.done && !t.stalled {
		if t.cycles >= vacant {
			panic(fmt.Sprintf("sched: thread %d cycle counter %d is past the schedulable range", t.id, t.cycles))
		}
		n.cycles, n.reach = t.cycles, t.cycles+t.slack
	}
	i := s.leaves + t.id
	s.tree[i] = n
	for ; i > 1; i >>= 1 {
		// A left sibling (i odd) holds lower IDs and wins ties.
		o := s.tree[i^1]
		if o.cycles < n.cycles+uint64(i&1) {
			n.cycles, n.id = o.cycles, o.id
		}
		n.reach = min(n.reach, o.reach)
		s.tree[i>>1] = n
	}
}

// bind makes t the running thread. t leads a thread in a sibling subtree
// left of its leaf-to-root path (lower IDs) only on strictly fewer
// cycles, and one to the right also on equal cycles, so its limit is the
// minimum over those siblings of cycles, plus one on the right. Its
// horizon is recomputed on first use.
func (s *Sim) bind(t *Thread) {
	lim := uint64(math.MaxUint64)
	for i := s.leaves + t.id; i > 1; i >>= 1 {
		lim = min(lim, s.tree[i^1].cycles+uint64(^i&1))
	}
	s.cur, s.limit, s.horizonOK = t.id, lim, false
}

// start builds a fresh coroutine per logical thread, suspended before its
// first body instruction, and returns the live count. The coroutine runs
// body when first resumed.
func (s *Sim) start(body func(*Thread)) int {
	s.stats = Stats{}
	s.maxBatchedKey, s.maxSlack = 0, 0
	for _, t := range s.threads {
		t.done = false
		t.slack = 0
		t.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
			t.yield = yield
			body(t)
		})
	}
	return len(s.threads)
}

// Run executes body(thread) on every logical thread and interleaves them
// lowest-cycle-first until all bodies return. It panics on total deadlock
// (every live thread stalled), which indicates an engine bug, and
// re-raises a body's panic or runtime.Goexit in the caller.
//
// Run has no resume loop: every thread is its own conductor. The running
// thread only hands off when it no longer leads (see Tick), when it
// stalls, or when its body returns; it then replays its own leaf — one
// leaf-to-root pass — binds the new root and switches directly into that
// root's coroutine (see handoff). On the common path a cycle charge is a
// single comparison against the bound. The caller is parked like a thread
// and is woken once the last body returns.
func (s *Sim) Run(body func(*Thread)) {
	s.fast, s.batch = true, !s.perEvent
	defer func() { s.fast, s.batch, s.limit = false, false, 0 }()
	s.live = s.start(func(t *Thread) { s.conduct(t, body) })
	for i := range s.tree {
		s.tree[i] = node{cycles: vacant, reach: math.MaxUint64}
	}
	for _, t := range s.threads {
		s.replay(t)
		s.in[t.id], t.resumed = int32(t.id), false
	}
	s.forwards, s.failed, s.failure = 0, false, nil
	s.handoff(s.caller(), s.next(s.caller()))
	if s.failed {
		if s.failure == nil {
			runtime.Goexit()
		}
		panic(s.failure)
	}
}

// caller is the goroutine index of Run's caller in the slot table.
func (s *Sim) caller() int { return len(s.threads) }

// next binds the tree's root as the running thread, counting the resume,
// and returns its ID. A vacant root means every live thread is stalled:
// goroutine me, which found it, hands the deadlock to Run's caller.
func (s *Sim) next(me int) int {
	if s.tree[1].cycles == vacant {
		s.fail(me, "sched: deadlock — all live threads stalled")
	}
	t := s.threads[s.tree[1].id]
	s.bind(t)
	s.stats.CoroutineSwitches++
	return t.id
}

// handoff parks goroutine me — a thread, or Run's caller — and runs
// goroutine to, returning once me is the bound goroutine s.cur again.
//
// A body's return wakes whichever goroutine is parked in that body's own
// coroutine, not the root its thread bound (see conduct). That goroutine
// forwards control to the bound one, an extra switch Stats does not
// count. Forwarding is legal only right after a body exit; any other
// wake of a goroutine that is not bound is a conductor bug, which Run's
// caller raises as a panic (see fail).
func (s *Sim) handoff(me, to int) {
	for {
		exited := s.wake(me, to)
		if s.cur == me {
			return
		}
		if !exited {
			s.fail(me, fmt.Sprintf("sched: goroutine %d woken while %d is bound", me, s.cur))
		}
		s.forwards++
		to = s.cur
	}
}

// wake parks goroutine me in the coroutine goroutine g is parked in,
// which runs g: the runtime's coroutine switch is symmetric. It returns
// once me is woken, reporting whether the wake was that coroutine's body
// returning. Entering through yield when the occupant entered through
// resume, and through resume otherwise, keeps each coroutine's resume
// and yield alternating as iter.Pull requires.
func (s *Sim) wake(me, g int) (exited bool) {
	k := s.in[g]
	s.in[me] = k
	t := s.threads[k]
	if t.resumed {
		t.resumed = false
		return !t.yield(struct{}{})
	}
	t.resumed = true
	_, ok := t.resume()
	return !ok
}

// conduct runs body on thread t under Run. When the body returns, t
// replays its vacant leaf and binds the next root, or Run's caller once
// every body has returned; the runtime then wakes the goroutine parked
// in t's coroutine, which forwards control if it is not the bound one
// (see handoff). A panic or runtime.Goexit in body is handed to Run's
// caller (see fail).
func (s *Sim) conduct(t *Thread, body func(*Thread)) {
	returned := false
	defer func() {
		if !returned {
			s.fail(t.id, recover())
		}
	}()
	if s.cur != t.id {
		s.fail(t.id, fmt.Sprintf("sched: thread %d started while %d is bound", t.id, s.cur))
	}
	body(t)
	t.done = true
	s.live--
	s.replay(t)
	if s.live == 0 {
		s.cur = s.caller()
	} else {
		s.next(t.id)
	}
	returned = true
}

// fail hands a failure found by goroutine me to Run's caller, which
// re-raises it: a body's panic value, nil for a body's runtime.Goexit,
// or a conductor panic such as a deadlock. A thread records it and
// switches straight to the caller, then stays parked for good, like the
// other threads of the failed Run, so a body's recover never sees a
// conductor panic.
func (s *Sim) fail(me int, p any) {
	s.failed, s.failure = true, p
	if me == s.caller() {
		panic(p)
	}
	s.cur = s.caller()
	s.wake(me, s.cur)
	panic("sched: failed thread resumed")
}
