package sched

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRunSingleThread(t *testing.T) {
	s := New(1, 42)
	ran := false
	s.Run(func(th *Thread) {
		ran = true
		th.Tick(10)
		th.Tick(5)
	})
	if !ran {
		t.Fatal("body did not run")
	}
	if got := s.Thread(0).Cycles(); got != 15 {
		t.Fatalf("cycles = %d, want 15", got)
	}
	if s.Makespan() != 15 {
		t.Fatalf("makespan = %d, want 15", s.Makespan())
	}
}

func TestLowestCycleFirstInterleaving(t *testing.T) {
	// Thread 0 ticks 10 per step, thread 1 ticks 1 per step. The
	// observed global order must always resume the lowest-cycle thread.
	s := New(2, 1)
	var order []int
	s.Run(func(th *Thread) {
		step := uint64(10)
		if th.ID() == 1 {
			step = 1
		}
		for i := 0; i < 5; i++ {
			order = append(order, th.ID())
			th.Tick(step)
		}
	})
	// Thread 1 runs 5 steps (cycles 0..4) before thread 0's second step
	// (cycle 10). Expected: 0 (cycle 0) or 1 first (tie at 0 broken by
	// id): thread 0 at 0, thread 1 at 0 -> id 0 first.
	want := []int{0, 1, 1, 1, 1, 1, 0, 0, 0, 0}
	if len(order) != len(want) {
		t.Fatalf("order length = %d, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint64 {
		s := New(4, 7)
		var trace []uint64
		s.Run(func(th *Thread) {
			for i := 0; i < 20; i++ {
				trace = append(trace, uint64(th.ID())<<32|th.Rand().Uint64()>>40)
				th.Tick(th.Rand().Uint64() % 17)
			}
		})
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %x vs %x", i, a[i], b[i])
		}
	}
}

func TestStallAndWakeAll(t *testing.T) {
	s := New(2, 3)
	var events []string
	s.Run(func(th *Thread) {
		if th.ID() == 0 {
			events = append(events, "stall")
			th.Stall()
			events = append(events, "woken")
			if th.Cycles() < 100 {
				t.Errorf("stalled thread clock = %d, want >= 100 (advanced to waker)", th.Cycles())
			}
		} else {
			th.Tick(100)
			events = append(events, "wake")
			th.WakeAll()
			th.Tick(1)
		}
	})
	if len(events) != 3 || events[0] != "stall" || events[1] != "wake" || events[2] != "woken" {
		t.Fatalf("events = %v", events)
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	s := New(1, 0)
	s.Run(func(th *Thread) { th.Stall() })
}

func TestTotalCycles(t *testing.T) {
	s := New(3, 0)
	s.Run(func(th *Thread) { th.Tick(uint64(th.ID()+1) * 10) })
	if got := s.TotalCycles(); got != 60 {
		t.Fatalf("total = %d, want 60", got)
	}
	if got := s.Makespan(); got != 30 {
		t.Fatalf("makespan = %d, want 30", got)
	}
}

func TestNewPanicsOnZeroThreads(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 1)
}

func TestRandIntnRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		if n == 0 {
			return true
		}
		r := NewRand(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(int(n))
			if v < 0 || v >= int(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(99)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		p := r.Perm(32)
		seen := make([]bool, 32)
		for _, v := range p {
			if v < 0 || v >= 32 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandDistinctStreams(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams overlap too much: %d identical draws", same)
	}
}

// TestCounterPastRangePanics checks the counters the conductor cannot
// order: from math.MaxUint64-1 up a counter collides with the vacant-leaf
// sentinel, so a thread that charges that far must panic at its next
// handoff rather than be misordered against vacant slots.
func TestCounterPastRangePanics(t *testing.T) {
	for _, threads := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("t%d", threads), func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("no panic on a counter of math.MaxUint64")
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "schedulable range") {
					t.Fatalf("panic %q does not name the range", msg)
				}
			}()
			New(threads, 1).Run(func(th *Thread) {
				th.Tick(1)
				if th.ID() == 0 {
					th.Tick(math.MaxUint64 - 1)
				}
			})
		})
	}
}

func TestNewBoundsThreadCount(t *testing.T) {
	if n := New(MaxThreads, 1).NumThreads(); n != MaxThreads {
		t.Fatalf("New(MaxThreads) has %d threads", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic past MaxThreads")
		}
	}()
	New(MaxThreads+1, 1)
}
