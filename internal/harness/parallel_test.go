package harness

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
)

// poolWorkers picks the "all cores" worker count for the determinism
// tests; on a single-CPU machine it still uses a multi-goroutine pool so
// the concurrent path (and the race detector) is exercised.
func poolWorkers() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 4
}

// figureRenders renders Figures 7 and 8 together (Figure 7's cells are a
// subset of Figure 8's, so RenderSections simulates Figure 8's plan once)
// with 1 worker, on a full worker pool, and on the pool again. The renders
// are made once and shared by the two tests below, each of which checks
// its own figure.
var figureRenders = sync.OnceValues(func() (figureRuns, error) {
	var r figureRuns
	run := func(workers int) ([]Section, time.Duration, error) {
		start := time.Now()
		secs, err := RenderSections(figureNames, 0, Options{Seeds: []uint64{1}, Workers: workers})
		return secs, time.Since(start), err
	}
	var err error
	if r.serial, r.serialWall, err = run(1); err != nil {
		return r, err
	}
	if r.parallel, r.parallelWall, err = run(poolWorkers()); err != nil {
		return r, err
	}
	r.again, _, err = run(poolWorkers())
	return r, err
})

var figureNames = []string{"figure7", "figure8"}

type figureRuns struct {
	serial, parallel, again  []Section
	serialWall, parallelWall time.Duration
}

// checkFigureDeterministic requires section i of figureRenders to return
// identical data and byte-identical text with 1 worker and with a full
// worker pool, and across the two renders on the pool.
func checkFigureDeterministic(t *testing.T, i int) figureRuns {
	t.Helper()
	r, err := figureRenders()
	if err != nil {
		t.Fatal(err)
	}
	name := figureNames[i]
	if !reflect.DeepEqual(r.serial[i].Data, r.parallel[i].Data) {
		t.Errorf("%s data diverges between 1 worker and %d workers", name, poolWorkers())
	}
	if !bytes.Equal(r.serial[i].Text, r.parallel[i].Text) {
		t.Errorf("%s report not byte-identical across worker counts:\n--- 1 worker ---\n%s\n--- %d workers ---\n%s",
			name, r.serial[i].Text, poolWorkers(), r.parallel[i].Text)
	}
	if !reflect.DeepEqual(r.parallel[i], r.again[i]) {
		t.Errorf("%s not reproducible across two renders at %d workers", name, poolWorkers())
	}
	return r
}

// TestFigure7DeterministicAcrossWorkers is the runner's core contract:
// the full Figure 7 result map — and the rendered report — must be
// identical when computed with 1 worker and with a full worker pool, and
// across two runs at the same worker count.
func TestFigure7DeterministicAcrossWorkers(t *testing.T) {
	checkFigureDeterministic(t, 0)
}

// TestFigure8ParallelIdenticalAndTimed holds Figure 8 to the same
// contract; on a multi-core machine the pool must also be faster.
func TestFigure8ParallelIdenticalAndTimed(t *testing.T) {
	r := checkFigureDeterministic(t, 1)
	t.Logf("Figure 7+8 sweep: workers=1 %v, workers=%d %v", r.serialWall, poolWorkers(), r.parallelWall)
	if runtime.GOMAXPROCS(0) > 1 && r.parallelWall >= r.serialWall {
		t.Errorf("parallel sweep (%v at %d workers) not faster than serial (%v)",
			r.parallelWall, poolWorkers(), r.serialWall)
	}
}

// BenchmarkFigure8Sweep times the Figure 8 sweep per worker count, so
// `go test -bench Figure8Sweep ./internal/harness` shows the wall-clock
// effect of the pool directly.
func BenchmarkFigure8Sweep(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(map[bool]string{true: "workers=1", false: "workers=gomaxprocs"}[workers == 1], func(b *testing.B) {
			o := Options{Seeds: []uint64{1}, Workers: workers}
			for i := 0; i < b.N; i++ {
				Figure8(io.Discard, o)
			}
		})
	}
}

// TestProgressCallbackCoversPlan checks the per-cell progress plumbing
// through the harness options.
func TestProgressCallbackCoversPlan(t *testing.T) {
	var calls atomic.Int64
	var total atomic.Int64
	o := Options{
		Seeds:   []uint64{1, 2},
		Workers: 2,
		Only:    []string{"List"},
		Progress: func(p exp.Progress) {
			calls.Add(1)
			total.Store(int64(p.Total))
			if p.Cell.Workload != "List" {
				t.Errorf("unexpected cell %v under Only filter", p.Cell)
			}
		},
	}
	Figure1(io.Discard, 4, o)
	// Figure 1 restricted to List: 1 workload × 1 engine × 1 thread
	// count × 2 seeds.
	if calls.Load() != 2 || total.Load() != 2 {
		t.Fatalf("progress calls=%d total=%d, want 2/2", calls.Load(), total.Load())
	}
}

// TestOnlyFilterSelectsAndOrders checks workload filtering for figure
// sweeps.
func TestOnlyFilterSelectsAndOrders(t *testing.T) {
	o := Options{Only: []string{"rbtree", "GENOME"}}
	got := o.filterWorkloads(registryNames())
	if !reflect.DeepEqual(got, []string{"RBTree", "Genome"}) {
		t.Fatalf("filterWorkloads = %v", got)
	}
	var buf bytes.Buffer
	o.Seeds = []uint64{1}
	data := Figure7(&buf, o)
	if len(data) != 2 {
		t.Fatalf("filtered Figure7 covered %d workloads, want 2", len(data))
	}
	if _, ok := data["Genome"]; !ok {
		t.Fatalf("filtered Figure7 missing Genome: %v", data)
	}
}
