package sched

import (
	"fmt"
	"strings"
	"testing"
)

// batchTrace is the observable outcome of one simulation whose bodies
// follow the horizon-batching protocol: per-thread step streams (real
// execution order inside one thread always matches simulated order), the
// globally ordered interaction log (interactions happen at per-event
// scheduling points, so their real order must equal their simulated
// order), the fenced observations of shared state, and the final clocks.
type batchTrace struct {
	perThread [][]uint64 // per-thread (cycle) stream at every step
	interacts []uint64   // global, order-sensitive: thread<<48|cycle
	observes  [][]uint64 // per-thread fenced reads: cycle<<16|sharedLen
	cycles    []uint64
	makespan  uint64
}

// runBatchBody drives a protocol-following random body under run and
// collects the trace. The body publishes a slack of `overhead` and keeps
// the promise exactly: every mutation or read of shared state happens
// behind SetSlack(0)+Tick(overhead) (mutations, audited with Interact) or
// behind a Fence (reads) — with the interaction landing exactly at
// park+overhead, the adversarial margin where only strictly-below-horizon
// batching is sound.
func runBatchBody(threads int, seed uint64, run func(*Sim, func(*Thread))) batchTrace {
	const overhead = 8
	tr := batchTrace{
		perThread: make([][]uint64, threads),
		observes:  make([][]uint64, threads),
	}
	var shared []uint64 // mutated only at interactions
	s := New(threads, seed)
	run(s, func(th *Thread) {
		id := th.ID()
		r := th.Rand()
		th.SetSlack(overhead)
		for i := 0; i < 120; i++ {
			tr.perThread[id] = append(tr.perThread[id], th.Cycles())
			switch r.Uint64() % 10 {
			case 0, 1:
				// Interaction: enter the critical section per-event.
				th.SetSlack(0)
				th.Tick(overhead)
				th.Interact()
				shared = append(shared, uint64(id)<<48|th.Cycles())
				tr.interacts = append(tr.interacts, uint64(id)<<48|th.Cycles())
				th.SetSlack(overhead)
				th.Tick(1)
			case 2:
				// Fenced order-sensitive read of the shared state.
				th.Fence()
				tr.observes[id] = append(tr.observes[id], th.Cycles()<<16|uint64(len(shared)))
				th.Tick(1 + r.Uint64()%3)
			case 3:
				// Thread-local waiting: never an event by itself.
				th.LocalTick(r.Uint64() % 20)
			default:
				// Batched-eligible charge, zero charges included.
				th.TickHinted(r.Uint64() % 5)
			}
		}
	})
	for i := 0; i < threads; i++ {
		tr.cycles = append(tr.cycles, s.Thread(i).Cycles())
	}
	tr.makespan = s.Makespan()
	return tr
}

// diffBatchTraces fails the test on any observable divergence.
func diffBatchTraces(t *testing.T, got, want batchTrace, gotName, wantName string) {
	t.Helper()
	if got.makespan != want.makespan {
		t.Errorf("makespan: %s %d, %s %d", gotName, got.makespan, wantName, want.makespan)
	}
	for i := range want.cycles {
		if got.cycles[i] != want.cycles[i] {
			t.Errorf("thread %d final cycles: %s %d, %s %d", i, gotName, got.cycles[i], wantName, want.cycles[i])
		}
	}
	if len(got.interacts) != len(want.interacts) {
		t.Fatalf("interaction counts: %s %d, %s %d", gotName, len(got.interacts), wantName, len(want.interacts))
	}
	for i := range want.interacts {
		if got.interacts[i] != want.interacts[i] {
			t.Fatalf("interaction order diverges at %d: %s (thread %d, cycle %d), %s (thread %d, cycle %d)",
				i, gotName, got.interacts[i]>>48, got.interacts[i]&(1<<48-1),
				wantName, want.interacts[i]>>48, want.interacts[i]&(1<<48-1))
		}
	}
	for id := range want.perThread {
		g, w := got.perThread[id], want.perThread[id]
		if len(g) != len(w) {
			t.Fatalf("thread %d step counts: %s %d, %s %d", id, gotName, len(g), wantName, len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("thread %d step %d: %s cycle %d, %s cycle %d", id, i, gotName, g[i], wantName, w[i])
			}
		}
	}
	for id := range want.observes {
		g, w := got.observes[id], want.observes[id]
		if len(g) != len(w) {
			t.Fatalf("thread %d observation counts: %s %d, %s %d", id, gotName, len(g), wantName, len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("thread %d fenced observation %d: %s cycle=%d len=%d, %s cycle=%d len=%d",
					id, i, gotName, g[i]>>16, g[i]&0xffff, wantName, w[i]>>16, w[i]&0xffff)
			}
		}
	}
}

// TestBatchedRunMatchesSlow is the horizon-batching differential oracle:
// random bodies that follow the slack protocol must be observably
// indistinguishable — interaction order, fenced reads, per-thread step
// streams, final clocks and makespan — between the batched tree conductor
// and the reference conductor, RunChoose with DefaultChooser (under which
// TickHinted and LocalTick degrade to Tick and Fence to a no-op).
func TestBatchedRunMatchesSlow(t *testing.T) {
	for _, threads := range treeShapes {
		for seed := uint64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("t%d/s%d", threads, seed), func(t *testing.T) {
				fast := runBatchBody(threads, seed, (*Sim).Run)
				slow := runBatchBody(threads, seed, runChooseDefault)
				diffBatchTraces(t, fast, slow, "batched", "slow")
			})
		}
	}
}

// TestBatchedRunMatchesPerEvent pins the differential the harness-level
// byte-identity gates build on: the batched conductor against the same
// tree conductor with batching disabled (SetPerEvent), which reproduces
// the pre-batching per-event fast path exactly.
func TestBatchedRunMatchesPerEvent(t *testing.T) {
	perEvent := func(s *Sim, body func(*Thread)) {
		s.SetPerEvent(true)
		s.Run(body)
	}
	for _, threads := range []int{2, 4, 8} {
		for seed := uint64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("t%d/s%d", threads, seed), func(t *testing.T) {
				batched := runBatchBody(threads, seed, (*Sim).Run)
				ref := runBatchBody(threads, seed, perEvent)
				diffBatchTraces(t, batched, ref, "batched", "per-event")
			})
		}
	}
}

// TestBatchingActuallyBatches guards the point of the mechanism: under the
// protocol bodies the batched conductor must run multi-event quanta (a
// regression to per-event scheduling would silently keep figures correct
// while losing the performance), and must switch coroutines strictly less
// often than the per-event conductor on the same workload.
func TestBatchingActuallyBatches(t *testing.T) {
	var batched Stats
	runBatchBody(4, 1, func(sim *Sim, body func(*Thread)) {
		sim.Run(body)
		batched = sim.Stats()
	})
	if batched.BatchedEvents == 0 {
		t.Fatalf("batched conductor ran no batched events: %+v", batched)
	}
	var perEvent Stats
	runBatchBody(4, 1, func(sim *Sim, body func(*Thread)) {
		sim.SetPerEvent(true)
		sim.Run(body)
		perEvent = sim.Stats()
	})
	if perEvent.BatchedEvents != 0 {
		t.Fatalf("per-event conductor batched %d events", perEvent.BatchedEvents)
	}
	if batched.CoroutineSwitches >= perEvent.CoroutineSwitches {
		t.Fatalf("batched conductor switched %d times, per-event %d: batching should reduce switches",
			batched.CoroutineSwitches, perEvent.CoroutineSwitches)
	}
	if perEvent.LocalTicks != 0 || batched.LocalTicks == 0 {
		t.Fatalf("LocalTicks: batched %d (want > 0), per-event %d (want 0)",
			batched.LocalTicks, perEvent.LocalTicks)
	}
}

// TestInteractPanicsOnStaleSlack is the adversarial stale-hint test: a
// thread that publishes a slack promise and then interacts with shared
// state early — below another thread's already-batched horizon — must be
// caught by the Interact audit, not silently corrupt the simulation.
func TestInteractPanicsOnStaleSlack(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Interact did not panic on a stale slack promise")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "stale") {
			t.Fatalf("panic %q does not mention the stale promise", msg)
		}
	}()
	s := New(2, 1)
	s.Run(func(th *Thread) {
		if th.ID() == 1 {
			// False promise: no interaction for 100 cycles...
			th.SetSlack(100)
			th.Tick(10)
			th.Tick(5)
			// ...broken here: thread 0 has batched past cycle 15 under
			// the published horizon of 110.
			th.Interact()
			return
		}
		for i := 0; i < 30; i++ {
			th.TickHinted(2)
		}
	})
}

// TestStatsResetPerRun pins that the conductor counters are per-Run: a
// second simulation on the same machine starts from zero.
func TestStatsResetPerRun(t *testing.T) {
	s := New(2, 1)
	body := func(th *Thread) {
		th.SetSlack(4)
		for i := 0; i < 20; i++ {
			th.TickHinted(1)
			th.LocalTick(1)
		}
	}
	s.Run(body)
	first := s.Stats()
	if first == (Stats{}) {
		t.Fatal("first run recorded no stats")
	}
	s.Run(body)
	if second := s.Stats(); second != first {
		t.Fatalf("stats not reset between runs: first %+v, second %+v", first, second)
	}
}
