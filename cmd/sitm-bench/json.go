package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"repro/internal/exp"
	"repro/internal/sched"
)

// benchReport is the -json artefact: one record per invocation. The
// schema is documented in EXPERIMENTS.md ("Benchmark trajectory").
type benchReport struct {
	Command    string `json:"command"`
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// GitRevision is the revision the binary was built from (build-info
	// VCS stamp, falling back to asking git about the build tree;
	// "unknown" outside a git checkout, with a "-dirty" suffix when the
	// working tree has uncommitted changes).
	GitRevision string `json:"git_revision"`
	// PerEvent records whether the sweep ran with horizon batching
	// disabled (-per-event); figure bytes are identical either way, but
	// SchedStats is the counter that tells the two conductors apart.
	PerEvent bool     `json:"per_event,omitempty"`
	Workers  int      `json:"workers"`
	Seeds    []uint64 `json:"seeds"`
	// Cells counts the distinct cells the invocation ran (simulated or
	// served from -cache-dir), WallSeconds is the host time of the whole
	// render and SimCycles the sum of every cell's makespan.
	Cells       uint64  `json:"cells"`
	WallSeconds float64 `json:"wall_seconds"`
	SimCycles   uint64  `json:"sim_cycles"`
	// SchedStats sums the deterministic conductor counters over every
	// cell of the invocation: coroutine switches, inline ticks,
	// horizon-batched events and local (uncontended) ticks. Batching
	// shows up here as coroutine_switches dropping and batched_events
	// rising relative to a -per-event run of the same sweep.
	SchedStats sched.Stats `json:"sched_stats"`
}

// benchCollector accumulates the per-cell counters, fed concurrently by
// the harness CellDone hook.
type benchCollector struct {
	mu     sync.Mutex // guards report
	report benchReport
}

// newBenchCollector starts a collector describing the current invocation.
func newBenchCollector(workers int, seeds []uint64, perEvent bool) *benchCollector {
	args := append([]string{filepath.Base(os.Args[0])}, os.Args[1:]...)
	return &benchCollector{report: benchReport{
		Command:     strings.Join(args, " "),
		GoVersion:   runtime.Version(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GitRevision: exp.CurrentGitRevision(),
		PerEvent:    perEvent,
		Workers:     workers,
		Seeds:       seeds,
	}}
}

// cellDone is the harness CellDone hook; safe for concurrent calls.
func (b *benchCollector) cellDone(_ exp.Cell, res exp.CellResult) {
	b.mu.Lock()
	b.report.Cells++
	b.report.SimCycles += res.SimCycles
	b.report.SchedStats.Add(res.Sched)
	b.mu.Unlock()
}

// write records the render's wall time and writes the JSON artefact.
func (b *benchCollector) write(path string, wallSeconds float64) error {
	b.mu.Lock()
	b.report.WallSeconds = wallSeconds
	data, err := json.MarshalIndent(&b.report, "", "  ")
	b.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
