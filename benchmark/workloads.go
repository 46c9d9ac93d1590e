package main

import (
	"fmt"
	"strings"

	"repro/internal/harness"
)

// workload is one named sweep of the benchmark: a figure plan restricted
// to a set of paper workloads. One round renders the figure for one seed
// slice; the round unit u selects the slice (seeds).
type workload struct {
	name   string
	figure string   // harness.PlanFigure / RenderFigureText section
	only   []string // harness.Options.Only
	// threads is the thread count of single-count sections (table2);
	// figure8 and figure-oltp sweep their own thread axes.
	threads       int
	seedsPerRound int
}

// workloads are chosen so that each simulator layer is exercised by one
// workload and bypassed by another (README.md "Workloads").
var workloads = []workload{
	// Tiny footprints and hot conflicts: nearly every access is a
	// conductor handoff, so sched, coroutine switching and the 2PL/SONTM
	// conflict paths dominate.
	{name: "micro", figure: "figure8", only: []string{"Array", "List", "RBTree"}, seedsPerRound: 1},
	// Longer transactions over bigger structures: mostly way-predicted L1
	// hits and batched quanta.
	{name: "stamp", figure: "figure8", only: []string{"Genome", "Intruder", "Kmeans", "Labyrinth", "Vacation", "SSCA2", "Bayes"}, seedsPerRound: 1},
	// Million-line footprints: the only workload whose set-up (Zipf zeta
	// sums, 2^20-line tables), validation scans and heap are large.
	{name: "oltp", figure: "figure-oltp", only: []string{"kv@0.50", "kv@0.99", "ledger@0.50", "ledger@0.99"}, seedsPerRound: 1},
	// SI-TM alone with unbounded version lists: exercises mvm and the
	// SI-TM commit path, and bypasses every 2PL/SONTM change.
	{name: "table2", figure: "table2", threads: 32, seedsPerRound: 4},
}

// workloadByName resolves a benchmark workload name.
func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %s)", name, workloadNames())
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// seeds returns the simulation seeds of round unit u: u itself, or the
// aligned block u*n … u*n+n-1 when a round averages n seeds, so rounds of
// any base seed land on the same slices (and the same golden digests).
func (w workload) seeds(u uint64) []uint64 {
	s := make([]uint64, w.seedsPerRound)
	for i := range s {
		s[i] = u*uint64(w.seedsPerRound) + uint64(i)
	}
	return s
}

// options are the harness options of round unit u: one worker, so cells
// run one at a time in plan order (a closed loop with one client).
func (w workload) options(u uint64) harness.Options {
	return harness.Options{Seeds: w.seeds(u), Only: w.only, Workers: 1}
}

// plan returns the cells and cell configuration of round unit u.
func (w workload) plan(u uint64) (harness.FigurePlan, error) {
	return harness.PlanFigure(w.figure, w.threads, w.options(u))
}
