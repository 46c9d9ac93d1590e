package exp

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCrossOrderAndSize(t *testing.T) {
	p := Cross([]string{"A", "B"}, []string{"E1", "E2"}, []int{1, 2}, []uint64{7, 8})
	if len(p) != 2*2*2*2 {
		t.Fatalf("plan size = %d, want 16", len(p))
	}
	// Nested order: workload outermost, then engine, threads, seeds.
	want := []Cell{
		{"A", "E1", 1, 7}, {"A", "E1", 1, 8}, {"A", "E1", 2, 7}, {"A", "E1", 2, 8},
		{"A", "E2", 1, 7}, {"A", "E2", 1, 8}, {"A", "E2", 2, 7}, {"A", "E2", 2, 8},
		{"B", "E1", 1, 7}, {"B", "E1", 1, 8}, {"B", "E1", 2, 7}, {"B", "E1", 2, 8},
		{"B", "E2", 1, 7}, {"B", "E2", 1, 8}, {"B", "E2", 2, 7}, {"B", "E2", 2, 8},
	}
	if !reflect.DeepEqual([]Cell(p), want) {
		t.Fatalf("plan order wrong:\n got %v\nwant %v", p, want)
	}
	if s := p[0].String(); s != "A/E1/t1/s7" {
		t.Fatalf("cell string = %q", s)
	}
}

// exec must see results come back in plan order no matter how cells
// interleave across workers.
func TestResultsInPlanOrderRegardlessOfWorkers(t *testing.T) {
	plan := Cross([]string{"w"}, []string{"e"}, []int{1}, seeds(32))
	exec := func(i int, c Cell) string {
		// Earlier cells sleep longer, so completion order inverts plan
		// order under parallelism.
		time.Sleep(time.Duration(len(plan)-i) * time.Millisecond)
		return fmt.Sprintf("%d:%s", i, c)
	}
	for _, workers := range []int{1, 3, 16} {
		rs := pool(Runner{Workers: workers}, plan, exec)
		if len(rs) != len(plan) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(rs), len(plan))
		}
		for i, r := range rs {
			if r.Cell != plan[i] {
				t.Fatalf("workers=%d: result %d carries cell %v, want %v", workers, i, r.Cell, plan[i])
			}
			if want := fmt.Sprintf("%d:%s", i, plan[i]); r.Value != want {
				t.Fatalf("workers=%d: result %d = %q, want %q", workers, i, r.Value, want)
			}
			if r.Wall <= 0 {
				t.Fatalf("workers=%d: result %d has no wall-clock", workers, i)
			}
		}
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	plan := Cross([]string{"a", "b", "c"}, []string{"x", "y"}, []int{1, 2, 4}, seeds(3))
	exec := func(_ int, c Cell) uint64 { return c.Seed*1000 + uint64(c.Threads) }
	base := Values(pool(Runner{Workers: 1}, plan, exec))
	for _, workers := range []int{2, 5, 64} {
		got := Values(pool(Runner{Workers: workers}, plan, exec))
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d diverged from workers=1", workers)
		}
	}
}

// The pool runs at most Workers cells at once, and builds one warm state
// per worker that only that worker uses (the race detector would flag a
// shared one).
func TestWorkerPoolIsBounded(t *testing.T) {
	const bound = 3
	var cur, peak atomic.Int64
	plan := Cross([]string{"w"}, []string{"e"}, []int{1}, seeds(24))
	var mu sync.Mutex
	var states []*int
	runWarm(Runner{Workers: bound}, plan, func() *int {
		mu.Lock()
		defer mu.Unlock()
		states = append(states, new(int))
		return states[len(states)-1]
	}, func(_ int, _ Cell, cells *int) (int, bool) {
		*cells++
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return 0, false
	})
	if p := peak.Load(); p > bound {
		t.Fatalf("peak concurrency %d exceeds worker bound %d", p, bound)
	}
	if len(states) > bound {
		t.Fatalf("%d warm states built, want at most one per worker (%d)", len(states), bound)
	}
	total := 0
	for _, cells := range states {
		total += *cells
	}
	if total != len(plan) {
		t.Fatalf("warm states saw %d cells, want %d", total, len(plan))
	}
}

func TestProgressIsSerialisedAndComplete(t *testing.T) {
	plan := Cross([]string{"w"}, []string{"e"}, []int{1}, seeds(20))
	var mu sync.Mutex
	var dones []int
	total := -1
	rs := pool(Runner{Workers: 4, Progress: func(p Progress) {
		// The runner serialises callbacks; the mutex here only guards
		// against the test's own assertions racing a buggy runner.
		mu.Lock()
		defer mu.Unlock()
		dones = append(dones, p.Done)
		total = p.Total
		if p.Wall < 0 {
			t.Errorf("negative wall for %v", p.Cell)
		}
	}}, plan, func(i int, c Cell) int { return i })
	if len(rs) != len(plan) || total != len(plan) {
		t.Fatalf("results=%d total=%d, want %d", len(rs), total, len(plan))
	}
	if len(dones) != len(plan) {
		t.Fatalf("%d progress callbacks, want %d", len(dones), len(plan))
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("Done sequence %v not monotonically 1..N", dones)
		}
	}
}

func TestZeroWorkersDefaultsAndEmptyPlan(t *testing.T) {
	if rs := pool(Runner{}, nil, func(int, Cell) int { return 1 }); len(rs) != 0 {
		t.Fatalf("empty plan produced %d results", len(rs))
	}
	rs := pool(Runner{Workers: 0}, Plan{{Workload: "w", Engine: "e", Threads: 1, Seed: 1}},
		func(int, Cell) int { return 42 })
	if len(rs) != 1 || rs[0].Value != 42 {
		t.Fatalf("default-worker run wrong: %+v", rs)
	}
	if got := (Runner{Workers: -1}).workers(10); got < 1 {
		t.Fatalf("workers(-1) = %d, want >= 1", got)
	}
	if got := (Runner{Workers: 8}).workers(2); got != 2 {
		t.Fatalf("workers should clamp to plan length, got %d", got)
	}
}

func TestValues(t *testing.T) {
	rs := []Result[int]{{Value: 1}, {Value: 2}, {Value: 3}}
	if got := Values(rs); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("Values = %v", got)
	}
}

func seeds(n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = uint64(i + 1)
	}
	return s
}

// pool runs plan on the worker pool with no warm state and no cache.
func pool[T any](r Runner, plan Plan, exec func(i int, c Cell) T) []Result[T] {
	return runWarm(r, plan, func() struct{} { return struct{}{} },
		func(i int, c Cell, _ struct{}) (T, bool) { return exec(i, c), false })
}
