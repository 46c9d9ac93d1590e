// Package exp is the experiment-plan layer of the evaluation harness.
//
// A Plan is a flat, ordered list of cells — one fully specified simulation
// each: {workload, engine, threads, seed}. A Runner executes a plan on a
// bounded pool of OS goroutines. Each cell is an isolated deterministic
// simulation (the executor builds a fresh engine, memory hierarchy and
// workload per cell — shared-nothing), so cells can run concurrently
// without perturbing each other's lowest-cycle-first schedules: the
// deterministic conductor of internal/sched serialises the *logical*
// threads within one simulation, while the runner parallelises across
// simulations.
//
// Results are always returned in plan order, regardless of the worker
// count or the order in which cells happen to finish, so any report
// rendered from them is byte-identical whether the sweep ran on one
// worker or on every core of the machine.
package exp

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Cell names one simulation of a sweep: a workload run on an engine with a
// thread count and a scheduler seed. Cells are plain values; the runner
// never interprets them beyond passing them to the executor.
type Cell struct {
	Workload string
	Engine   string
	Threads  int
	Seed     uint64
}

func (c Cell) String() string {
	return fmt.Sprintf("%s/%s/t%d/s%d", c.Workload, c.Engine, c.Threads, c.Seed)
}

// Plan is an ordered list of cells. Order is significant: results come
// back in plan order.
type Plan []Cell

// Cross builds the full cross-product plan in nested order: workloads
// outermost, then engines, then thread counts, then seeds. This is the
// iteration order the figure renderers aggregate in.
func Cross(workloads, engines []string, threads []int, seeds []uint64) Plan {
	p := make(Plan, 0, len(workloads)*len(engines)*len(threads)*len(seeds))
	for _, w := range workloads {
		for _, e := range engines {
			for _, th := range threads {
				for _, s := range seeds {
					p = append(p, Cell{Workload: w, Engine: e, Threads: th, Seed: s})
				}
			}
		}
	}
	return p
}

// Progress reports one completed cell to the Runner's callback.
type Progress struct {
	// Done counts completed cells including this one; Total is the plan
	// length.
	Done, Total int
	// Cell is the completed cell; Wall is its wall-clock duration.
	Cell Cell
	Wall time.Duration
	// Cached reports that the cell was served from the result cache
	// instead of being simulated (CellRunner only).
	Cached bool
}

// Runner executes plans on a bounded worker pool.
type Runner struct {
	// Workers bounds the pool; values <= 0 mean runtime.GOMAXPROCS(0).
	// Each worker executes whole cells, one at a time.
	Workers int
	// Progress, when non-nil, is called after every completed cell.
	// Calls are serialised (the callback needs no locking) but arrive in
	// completion order, which is nondeterministic with more than one
	// worker — progress is for humans, results are for reports.
	Progress func(Progress)
}

// workers resolves the effective pool size for a plan.
func (r Runner) workers(planLen int) int {
	n := r.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > planLen {
		n = planLen
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Result pairs a cell with the executor's measurement and the cell's
// wall-clock duration. Cached reports whether the value was served from
// the result cache (CellRunner only).
type Result[T any] struct {
	Cell   Cell
	Value  T
	Wall   time.Duration
	Cached bool
}

// runWarm is the worker pool under CellRunner. It executes every cell of
// plan through exec and returns the results in plan order; exec receives
// the cell's plan index alongside the cell, must be safe to call from
// multiple goroutines and must not share mutable state between cells. It
// reports whether the cell was served from a cache, which is threaded
// into the result and the progress callback. Every worker builds one W
// via warm and hands it to exec for each cell it executes, so state whose
// construction is expensive (resolved configurations, scratch memory for
// simulated cache arrays) is paid once per worker rather than once per
// cell. A W is only ever used by the worker that built it — exec may
// mutate it freely without synchronisation — and must not influence
// measured results: which worker runs a cell, and therefore which W it
// sees, is nondeterministic.
func runWarm[T, W any](r Runner, plan Plan, warm func() W, exec func(i int, c Cell, w W) (T, bool)) []Result[T] {
	results := make([]Result[T], len(plan))
	if len(plan) == 0 {
		return results
	}

	var (
		mu   sync.Mutex
		done int
	)
	runCell := func(i int, w W) {
		start := time.Now()
		v, cached := exec(i, plan[i], w)
		wall := time.Since(start)
		results[i] = Result[T]{Cell: plan[i], Value: v, Wall: wall, Cached: cached}
		if r.Progress != nil {
			mu.Lock()
			done++
			r.Progress(Progress{Done: done, Total: len(plan), Cell: plan[i], Wall: wall, Cached: cached})
			mu.Unlock()
		}
	}

	n := r.workers(len(plan))
	if n == 1 {
		w := warm()
		for i := range plan {
			runCell(i, w)
		}
		return results
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func() {
			defer wg.Done()
			ws := warm()
			for i := range idx {
				runCell(i, ws)
			}
		}()
	}
	for i := range plan {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// Values strips the cell and timing metadata, returning just the
// measurements in plan order.
func Values[T any](rs []Result[T]) []T {
	vs := make([]T, len(rs))
	for i, r := range rs {
		vs[i] = r.Value
	}
	return vs
}
