package sched

import "fmt"

// Barrier is a deterministic spin barrier for logical threads, used by
// phased workloads (the STAMP kernels separate their phases with
// barriers). Waiting threads burn simulated cycles polling, exactly like
// a hardware spin barrier, so barrier imbalance shows up in the makespan.
//
// The polls themselves are not simulated one by one. A waiter is held
// (Thread.hold) until the last thread arrives, and the releaser sets its
// clock to the poll at which the spin loop would have seen the release
// (see exit): the cycles charged are the spin loop's, without a
// coroutine switch per poll.
type Barrier struct {
	n int
	// waiting lists the held threads; a held thread's clock stays at its
	// arrival until the release.
	waiting []*Thread
	// SpinCycles is the poll interval charged per check (default 5). It
	// must be positive: a waiter polls at its arrival plus a whole
	// number of intervals.
	SpinCycles uint64
}

// NewBarrier creates a barrier for n threads.
func NewBarrier(n int) *Barrier {
	if n <= 0 {
		panic("sched: barrier size must be positive")
	}
	return &Barrier{n: n, SpinCycles: 5}
}

// Wait blocks (spinning in simulated time) until n threads have arrived.
// The barrier is reusable: the release empties the waiting list, so
// successive phases do not mix.
func (b *Barrier) Wait(t *Thread) {
	if b.SpinCycles == 0 {
		panic(fmt.Sprintf("sched: thread %d waits at a barrier with SpinCycles 0; its spin loop would never advance", t.id))
	}
	// Arrival order decides who releases the barrier, so it must happen
	// at the per-event scheduling point: end any batched quantum first.
	t.Fence()
	if len(b.waiting)+1 < b.n {
		b.waiting = append(b.waiting, t)
		t.hold()
		return
	}
	for _, w := range b.waiting {
		t.sim.unhold(w, b.exit(w, t), t)
	}
	b.waiting = b.waiting[:0]
	t.Tick(b.SpinCycles)
}

// exit returns the cycle at which held thread w's spin loop leaves the
// barrier that thread rel releases now: its first poll, at arrival + m ×
// SpinCycles with m >= 1, that the conductor orders after the release in
// (cycles, ID) order. A poll at the release's cycle comes after it only
// if the waiter has the higher ID. The release runs at rel's per-event
// point (Wait fences), so under Run and RunChoose with DefaultChooser
// every earlier poll would have found the barrier closed and this one
// finds it open: the clock is exactly where the spin loop leaves it.
func (b *Barrier) exit(w, rel *Thread) uint64 {
	a, r, s := w.cycles, rel.cycles, b.SpinCycles
	if r <= a {
		return a + s
	}
	c := a + (r-a)/s*s // the last poll at or before the release
	if c < r || w.id < rel.id {
		c += s
	}
	return c
}
