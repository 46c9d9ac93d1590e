package sched

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// trace records the observable schedule of one simulation: the sequence of
// (thread, cycle) pairs at every step of every body, plus the final
// per-thread cycle counters.
type trace struct {
	steps  []uint64
	cycles []uint64
}

// runTraced executes body-shaped work under run (either (*Sim).Run or
// the reference conductor, runChooseDefault) and returns the full
// observable schedule.
func runTraced(threads int, seed uint64, run func(*Sim, func(*Thread)), body func(*Thread, func())) trace {
	s := New(threads, seed)
	var tr trace
	run(s, func(th *Thread) {
		body(th, func() {
			tr.steps = append(tr.steps, uint64(th.ID())<<48|th.Cycles())
		})
	})
	for i := 0; i < threads; i++ {
		tr.cycles = append(tr.cycles, s.Thread(i).Cycles())
	}
	return tr
}

// diffTraces fails the test if two schedules are not identical.
func diffTraces(t *testing.T, fast, slow trace) {
	t.Helper()
	if len(fast.steps) != len(slow.steps) {
		t.Fatalf("step counts diverge: fast %d, slow %d", len(fast.steps), len(slow.steps))
	}
	for i := range fast.steps {
		if fast.steps[i] != slow.steps[i] {
			t.Fatalf("schedules diverge at step %d: fast (thread %d, cycle %d), slow (thread %d, cycle %d)",
				i, fast.steps[i]>>48, fast.steps[i]&(1<<48-1), slow.steps[i]>>48, slow.steps[i]&(1<<48-1))
		}
	}
	for i := range fast.cycles {
		if fast.cycles[i] != slow.cycles[i] {
			t.Fatalf("thread %d cycles diverge: fast %d, slow %d", i, fast.cycles[i], slow.cycles[i])
		}
	}
}

// treeShapes are the thread counts the conductor differentials cover:
// powers of two, and counts on either side of one, where the winner
// tree pads its leaves with vacant slots.
var treeShapes = []int{1, 2, 3, 4, 5, 8, 16, 31, 32, 33, 64, 65}

// TestRunMatchesSlowRandomTicks is the tree conductor's differential
// oracle: across thread counts and seeds, random tick patterns must
// produce the exact schedule of the reference conductor (RunChoose with
// DefaultChooser).
func TestRunMatchesSlowRandomTicks(t *testing.T) {
	for _, threads := range treeShapes {
		for seed := uint64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("t%d/s%d", threads, seed), func(t *testing.T) {
				body := func(th *Thread, step func()) {
					for i := 0; i < 200; i++ {
						step()
						// Heavy tie mass: ~1/4 of ticks charge zero
						// cycles, stressing the ID tie-break.
						th.Tick(th.Rand().Uint64() % 4)
					}
				}
				fast := runTraced(threads, seed, (*Sim).Run, body)
				slow := runTraced(threads, seed, runChooseDefault, body)
				diffTraces(t, fast, slow)
			})
		}
	}
}

// TestRunMatchesSlowStallWake differentially checks Stall/WakeAll: threads
// randomly stall, and the lowest-ID runnable thread wakes the machine.
func TestRunMatchesSlowStallWake(t *testing.T) {
	for _, threads := range []int{2, 4, 8} {
		for seed := uint64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("t%d/s%d", threads, seed), func(t *testing.T) {
				// Shared (single-logical-thread-at-a-time) counters keep
				// the workload deadlock-free: a thread stalls only while
				// another live thread is runnable, and every body wakes
				// the machine before finishing — so some runnable thread
				// always eventually wakes the stalled ones.
				mk := func() func(*Thread, func()) {
					alive, stalled := threads, 0
					return func(th *Thread, step func()) {
						for i := 0; i < 100; i++ {
							step()
							r := th.Rand().Uint64() % 16
							switch {
							case r == 0 && alive-stalled > 1:
								stalled++
								th.Stall()
								stalled--
							case r == 1:
								th.WakeAll()
								th.Tick(1)
							default:
								th.Tick(r)
							}
						}
						alive--
						th.WakeAll()
					}
				}
				fast := runTraced(threads, seed, (*Sim).Run, mk())
				slow := runTraced(threads, seed, runChooseDefault, mk())
				diffTraces(t, fast, slow)
			})
		}
	}
}

// TestRunMatchesSlowWakeLowersBound is a Stall/WakeAll-heavy
// differential: most threads stall at every opportunity, and a waker
// keeps charging zero cycles after its WakeAll, so the woken threads —
// advanced to the waker's clock, and leading it whenever their ID is
// lower — must take the CPU from it at once. The test also checks that
// such wakes occur: the waker's inline bound must drop.
func TestRunMatchesSlowWakeLowersBound(t *testing.T) {
	for _, threads := range []int{2, 3, 5, 8, 33} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("t%d/s%d", threads, seed), func(t *testing.T) {
				lowered := 0
				mk := func() func(*Thread, func()) {
					alive, stalled := threads, 0
					return func(th *Thread, step func()) {
						for i := 0; i < 150; i++ {
							step()
							r := th.Rand().Uint64() % 8
							switch {
							case r < 3 && alive-stalled > 1:
								stalled++
								th.Stall()
								stalled--
							case r < 6:
								before := th.sim.limit
								th.WakeAll()
								if th.sim.fast && th.sim.limit < before {
									lowered++
								}
								th.Tick(0)
								th.Tick(r & 1)
							default:
								th.Tick(r)
							}
						}
						alive--
						th.WakeAll()
					}
				}
				fast := runTraced(threads, seed, (*Sim).Run, mk())
				slow := runTraced(threads, seed, runChooseDefault, mk())
				diffTraces(t, fast, slow)
				if lowered == 0 {
					t.Fatal("no WakeAll lowered the waker's inline bound")
				}
			})
		}
	}
}

// TestRunMatchesSlowFarCycles pins exact ordering far above any figure's
// cycle counts: threads park at 1<<62 (where the engine benchmarks park
// their bystanders), at 1<<63 and near math.MaxUint64, in ties broken by
// ID, and keep charging small amounts from there. Beyond matching the
// reference, the schedule must visit keys in nondecreasing (cycles, id)
// order, as lowest-first scheduling does.
func TestRunMatchesSlowFarCycles(t *testing.T) {
	parks := []uint64{1 << 62, 1 << 62, 1<<62 + 1, 1 << 63, math.MaxUint64 - 64}
	// A step is {cycles, id}; slices.Compare orders steps exactly as the
	// conductor orders threads.
	run := func(threads int, conduct func(*Sim, func(*Thread))) [][2]uint64 {
		var steps [][2]uint64
		conduct(New(threads, 1), func(th *Thread) {
			th.Tick(parks[th.ID()%len(parks)])
			for i := 0; i < 20; i++ {
				steps = append(steps, [2]uint64{th.Cycles(), uint64(th.ID())})
				th.Tick(th.Rand().Uint64() % 3)
			}
		})
		return steps
	}
	for _, threads := range []int{2, 3, 5, 8} {
		t.Run(fmt.Sprintf("t%d", threads), func(t *testing.T) {
			fast, slow := run(threads, (*Sim).Run), run(threads, runChooseDefault)
			if !slices.Equal(fast, slow) {
				t.Fatalf("schedules diverge:\nfast %v\nslow %v", fast, slow)
			}
			for i := 1; i < len(fast); i++ {
				if slices.Compare(fast[i][:], fast[i-1][:]) < 0 {
					t.Fatalf("step %d runs %+v after %+v", i, fast[i], fast[i-1])
				}
			}
		})
	}
}

// TestRunMatchesSlowBarrier differentially checks the barrier, whose
// held waiters re-enter the schedule at exit cycles the releaser sets.
func TestRunMatchesSlowBarrier(t *testing.T) {
	for _, threads := range []int{2, 4, 8} {
		seed := uint64(9)
		t.Run(fmt.Sprintf("t%d", threads), func(t *testing.T) {
			mk := func() (func(*Thread, func()), *Barrier) {
				b := NewBarrier(threads)
				return func(th *Thread, step func()) {
					for phase := 0; phase < 3; phase++ {
						step()
						th.Tick(th.Rand().Uint64() % 50)
						b.Wait(th)
					}
				}, b
			}
			fastBody, _ := mk()
			fast := runTraced(threads, seed, (*Sim).Run, fastBody)
			slowBody, _ := mk()
			slow := runTraced(threads, seed, runChooseDefault, slowBody)
			diffTraces(t, fast, slow)
		})
	}
}

// TestStallWhileFastPathing pins the fast-path/stall interaction: a thread
// that has been running inline (never touching the conductor) must still
// hand control back when it stalls, and the machine must continue with the
// woken threads in the right order.
func TestStallWhileFastPathing(t *testing.T) {
	s := New(3, 1)
	var order []string
	s.Run(func(th *Thread) {
		switch th.ID() {
		case 0:
			// Lowest cycles: every Tick is an inline fast path (the
			// others idle at higher cycle counts), then a stall.
			for i := 0; i < 50; i++ {
				th.Tick(1)
			}
			order = append(order, "t0-stall")
			th.Stall()
			order = append(order, "t0-woken")
			if th.Cycles() < 1000 {
				t.Errorf("t0 cycles = %d, want >= 1000 (advanced to waker)", th.Cycles())
			}
		case 1:
			th.Tick(1000)
			order = append(order, "t1-wake")
			th.WakeAll()
			th.Tick(1)
		case 2:
			th.Tick(2000)
			order = append(order, "t2-done")
		}
	})
	want := []string{"t0-stall", "t1-wake", "t0-woken", "t2-done"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestWakeAllReordersFastPath checks that an inline-running waker loses
// the CPU to a thread it woke at equal cycles but lower ID: WakeAll must
// update the bound Tick compares against.
func TestWakeAllReordersFastPath(t *testing.T) {
	s := New(2, 1)
	var order []string
	s.Run(func(th *Thread) {
		if th.ID() == 0 {
			order = append(order, "t0-stall")
			th.Stall()
			order = append(order, "t0-woken")
		} else {
			th.Tick(10)
			order = append(order, "t1-wake")
			th.WakeAll()
			// t0 is now runnable at t1's cycle count with a lower ID, so
			// this tick — even charging zero — must yield to t0.
			th.Tick(0)
			order = append(order, "t1-after")
		}
	})
	want := []string{"t0-stall", "t1-wake", "t0-woken", "t1-after"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// benchmarkTick measures the fast-path cycle charge: thread 0 ticks b.N
// times while the other thread idles far in the simulated future, so every
// charge but the first two is an inline comparison against its bound.
func benchmarkTick(b *testing.B) {
	s := New(2, 1)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(func(th *Thread) {
		if th.ID() == 0 {
			for i := 0; i < b.N; i++ {
				th.Tick(1)
			}
		} else {
			th.Tick(uint64(b.N) + 2)
		}
	})
}

// BenchmarkTick must report 0 allocs/op: the inline fast path performs no
// coroutine switch and no allocation.
func BenchmarkTick(b *testing.B) { benchmarkTick(b) }

// BenchmarkTickSlow is the reference conductor's cost for the same
// workload: a coroutine resume (two runtime switches) plus a scan of the
// runnable threads per charge.
func BenchmarkTickSlow(b *testing.B) {
	s := New(2, 1)
	b.ReportAllocs()
	b.ResetTimer()
	runChooseDefault(s, func(th *Thread) {
		if th.ID() == 0 {
			for i := 0; i < b.N; i++ {
				th.Tick(1)
			}
		} else {
			th.Tick(uint64(b.N) + 2)
		}
	})
}

// benchmarkHandoff measures the conductor's handoff path: b.N charges in
// total, spread over threads that each charge a small pseudo-random
// amount, so nearly every charge overtakes the next thread and costs a
// leaf-to-root replay plus one coroutine switch straight into the next
// thread. It reports resumes per charge as switches/op.
func benchmarkHandoff(b *testing.B, threads int) {
	s := New(threads, 1)
	b.ReportAllocs()
	b.ResetTimer()
	charges := 0
	s.Run(func(th *Thread) {
		r := th.Rand()
		for charges < b.N {
			charges++
			th.Tick(1 + r.Uint64()%8)
		}
	})
	b.ReportMetric(float64(s.Stats().CoroutineSwitches)/float64(b.N), "switches/op")
}

// BenchmarkHandoff must report 0 allocs/op: a handoff replays the tree in
// place and reuses each thread's coroutine.
func BenchmarkHandoff(b *testing.B) {
	for _, threads := range []int{2, 8, 32} {
		b.Run(fmt.Sprint(threads), func(b *testing.B) { benchmarkHandoff(b, threads) })
	}
}

// TestTickFastPathZeroAllocs counts the allocations of one Tick on the
// inline fast path, thread 0 charging while thread 1 idles far in the
// simulated future: there must be none.
func TestTickFastPathZeroAllocs(t *testing.T) {
	New(2, 1).Run(func(th *Thread) {
		if th.ID() == 1 {
			th.Tick(1 << 40)
			return
		}
		if a := testing.AllocsPerRun(1000, func() { th.Tick(1) }); a != 0 {
			t.Errorf("Tick fast path allocates %v times per charge, want 0", a)
		}
	})
}

// TestHandoffZeroAllocs counts the allocations of the handoff path on
// the largest benchmarked machine: 32 threads charge small
// pseudo-random amounts, so nearly every charge hands off, and the
// count for each of thread 0's charges takes in the other threads'
// charges and handoffs until it runs again. There must be none.
func TestHandoffZeroAllocs(t *testing.T) {
	done := false
	New(32, 1).Run(func(th *Thread) {
		r := th.Rand()
		if th.ID() != 0 {
			for !done {
				th.Tick(1 + r.Uint64()%8)
			}
			return
		}
		a := testing.AllocsPerRun(1000, func() { th.Tick(1 + r.Uint64()%8) })
		done = true
		if a != 0 {
			t.Errorf("handoff path allocates %v times per charge of thread 0, want 0", a)
		}
	})
}
