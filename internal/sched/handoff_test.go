package sched

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// handoffBody is benchmarkHandoff's body over a fixed number of charges:
// every thread charges a small pseudo-random amount until the machine as
// a whole has made charges charges, so nearly every charge overtakes the
// next thread.
func handoffBody(charges int) func(*Thread) {
	n := 0
	return func(th *Thread) {
		r := th.Rand()
		for n < charges {
			n++
			th.Tick(1 + r.Uint64()%8)
		}
	}
}

// stallWakeBody mixes every kind of charge with stalls and wakes: each
// thread publishes a slack, batches hinted charges, charges thread-local
// work, fences, and stalls while another live thread is runnable. Every
// body wakes the machine before it returns, so it never deadlocks.
func stallWakeBody(threads int) func(*Thread) {
	alive, stalled := threads, 0
	return func(th *Thread) {
		r := th.Rand()
		th.SetSlack(6)
		for i := 0; i < 60; i++ {
			switch x := r.Uint64() % 16; {
			case x == 0 && alive-stalled > 1:
				stalled++
				th.Stall()
				stalled--
			case x == 1:
				th.WakeAll()
				th.Tick(1)
			case x == 2:
				th.Fence()
				th.Tick(2)
			case x < 6:
				th.LocalTick(x)
			default:
				th.TickHinted(x % 5)
			}
		}
		alive--
		th.WakeAll()
	}
}

// TestRunStatsGolden pins Run's scheduling decisions at the sched layer:
// the exact conductor counters for fixed bodies at 2, 8 and 32 threads.
// The figures were recorded before Run's handoff became a direct
// thread-to-thread switch, so a rewrite of the handoff mechanism cannot
// silently move a resume, an inline charge, a batched event or a local
// charge.
func TestRunStatsGolden(t *testing.T) {
	golden := []struct {
		body    string
		threads int
		want    Stats
	}{
		{"handoff", 2, Stats{CoroutineSwitches: 2937, InlineTicks: 1161}},
		{"handoff", 8, Stats{CoroutineSwitches: 3979, InlineTicks: 125}},
		{"handoff", 32, Stats{CoroutineSwitches: 4128}},
		{"stallwake", 2, Stats{CoroutineSwitches: 13, InlineTicks: 72, BatchedEvents: 10, LocalTicks: 27}},
		{"stallwake", 8, Stats{CoroutineSwitches: 195, InlineTicks: 59, BatchedEvents: 143, LocalTicks: 104}},
		{"stallwake", 32, Stats{CoroutineSwitches: 833, InlineTicks: 117, BatchedEvents: 692, LocalTicks: 374}},
	}
	for _, g := range golden {
		t.Run(fmt.Sprintf("%s/t%d", g.body, g.threads), func(t *testing.T) {
			body := handoffBody(4096)
			if g.body == "stallwake" {
				body = stallWakeBody(g.threads)
			}
			s := New(g.threads, 7)
			s.Run(body)
			if got := s.Stats(); got != g.want {
				t.Fatalf("stats %+v, want %+v", got, g.want)
			}
		})
	}
}

// panicOf calls f and returns what it panicked with, or nil.
func panicOf(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// TestRunReRaisesBodyPanic checks that a body's panic reaches Run's
// caller with the identical value, both from the first thread resumed
// and from one resumed after several handoffs.
func TestRunReRaisesBodyPanic(t *testing.T) {
	for _, c := range []struct {
		name   string
		thread int
		after  int
	}{{"first", 0, 0}, {"later", 3, 5}} {
		t.Run(c.name, func(t *testing.T) {
			boom := &struct{ n int }{7}
			r := panicOf(func() {
				New(4, 1).Run(func(th *Thread) {
					for i := 0; i < 10; i++ {
						if th.ID() == c.thread && i == c.after {
							panic(boom)
						}
						th.Tick(1 + th.Rand().Uint64()%4)
					}
				})
			})
			if r != boom {
				t.Fatalf("Run panicked with %v, want the body's value %p", r, boom)
			}
		})
	}
}

// TestRunPropagatesGoexit checks that a body calling runtime.Goexit
// Goexits Run's caller rather than counting as a normal return.
func TestRunPropagatesGoexit(t *testing.T) {
	for _, thread := range []int{0, 2} {
		t.Run(fmt.Sprint("t", thread), func(t *testing.T) {
			var returned, panicked bool
			done := make(chan struct{})
			go func() {
				defer close(done)
				defer func() { panicked = recover() != nil }()
				New(3, 1).Run(func(th *Thread) {
					th.Tick(1 + uint64(th.ID()))
					if th.ID() == thread {
						runtime.Goexit()
					}
					th.Tick(1)
				})
				returned = true
			}()
			<-done
			if returned || panicked {
				t.Fatalf("Run's caller returned=%v panicked=%v, want it Goexited", returned, panicked)
			}
		})
	}
}

// TestDeadlockAtBodyExit checks the deadlock found by an exiting body —
// the last runnable thread returns while the others are stalled — and,
// for contrast, the one found at the last runnable thread's stall. Every
// body recovers whatever reaches it, which must not swallow a deadlock.
func TestDeadlockAtBodyExit(t *testing.T) {
	const want = "sched: deadlock — all live threads stalled"
	for _, exit := range []bool{true, false} {
		body := func(th *Thread) {
			defer func() { recover() }()
			if th.ID() == 0 {
				th.Tick(10)
				if exit {
					return
				}
			}
			th.Stall()
		}
		for name, run := range map[string]func(*Sim, func(*Thread)){"run": (*Sim).Run, "slow": (*Sim).Slow} {
			r := panicOf(func() { run(New(3, 1), body) })
			if r != want {
				t.Errorf("exit=%v: %s panicked with %v, want %q", exit, name, r, want)
			}
		}
	}
}

// TestRunMatchesSlowStaggeredExits runs bodies of pseudo-random lengths,
// so threads return at scattered points and a body's own coroutine is
// often held by a goroutine other than the next root, which must then
// forward control. The schedule must still be Slow's, and the
// forwarding path must actually be taken.
func TestRunMatchesSlowStaggeredExits(t *testing.T) {
	body := func(th *Thread, step func()) {
		r := th.Rand()
		for n := 1 + r.Uint64()%40; n > 0; n-- {
			step()
			th.Tick(r.Uint64() % 6)
		}
	}
	for _, threads := range treeShapes {
		t.Run(fmt.Sprint("t", threads), func(t *testing.T) {
			forwards := 0
			run := func(s *Sim, b func(*Thread)) {
				s.Run(b)
				forwards += s.forwards
			}
			for seed := uint64(1); seed <= 3; seed++ {
				diffTraces(t, runTraced(threads, seed, run, body), runTraced(threads, seed, (*Sim).Slow, body))
			}
			if threads > 1 && forwards == 0 {
				t.Fatal("no body exit was forwarded")
			}
		})
	}
}

// TestWrongTargetWakePanics checks the guard on the slot table: a
// goroutine woken while another is bound, other than right after a body
// exit, panics — whether it is parked mid-body or not yet started.
func TestWrongTargetWakePanics(t *testing.T) {
	for _, started := range []bool{false, true} {
		t.Run(fmt.Sprint("started=", started), func(t *testing.T) {
			s := New(2, 1)
			r := panicOf(func() {
				s.Run(func(th *Thread) {
					if th.ID() == 0 {
						if started {
							th.Tick(1) // thread 1 runs, parks at cycle 5
						}
						s.handoff(0, 1) // thread 0 is still bound
					}
					th.Tick(5)
				})
			})
			if msg := fmt.Sprint(r); !strings.Contains(msg, "is bound") {
				t.Fatalf("Run panicked with %v, want a wrong-target panic", r)
			}
		})
	}
}
