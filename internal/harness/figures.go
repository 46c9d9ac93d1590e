package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/cache"
)

// Fig1Workloads is the benchmark set shown in the paper's Figure 1.
var Fig1Workloads = []string{"Genome", "Bayes", "Intruder", "Kmeans", "Labyrinth", "SSCA2", "Vacation", "List", "RBTree"}

// Figure1 measures the read-write versus write-write abort breakdown
// under 2PL at the given thread count and writes the table: the paper
// reports 75-99% of aborts are read-write across the suite.
func Figure1(w io.Writer, threads int, o Options) []Result {
	return mustRender(w, "figure1", threads, o).([]Result)
}

// renderFigure1 renders Figure 1 from plan-ordered cell results — a pure
// function of serializable cell records, no simulator calls.
func renderFigure1(w io.Writer, g grid, rs cellResults) []Result {
	threads := g.threads[0]
	res := aggregateSweep(rs, len(g.seeds))
	fmt.Fprintf(w, "Figure 1: Read-Write and Write-Write Aborts in 2PL (%d threads)\n", threads)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\taborts\tread-write %\twrite-write %")
	var out []Result
	for _, name := range g.workloads {
		r := res[sweepKey{Workload: name, Engine: TwoPL, Threads: threads}]
		total := r.RWAborts + r.WWAborts
		rw, ww := 0.0, 0.0
		if total > 0 {
			rw = 100 * r.RWAborts / total
			ww = 100 * r.WWAborts / total
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.1f\t%.1f\n", name, r.Aborts, rw, ww)
		out = append(out, r)
	}
	tw.Flush()
	return out
}

// Fig7Threads are the thread counts of the Figure 7 panels.
var Fig7Threads = []int{8, 16, 32}

// fig7Engines are the engines compared in Figures 7 and 8, in column
// order.
var fig7Engines = []EngineKind{TwoPL, SONTM, SITM}

// Figure7 measures abort counts relative to 2PL for every benchmark at 8,
// 16 and 32 threads and writes one table per benchmark. Values below 1.0
// mean fewer aborts than 2PL at the same thread count.
func Figure7(w io.Writer, o Options) map[string]map[int][3]float64 {
	return mustRender(w, "figure7", 0, o).(map[string]map[int][3]float64)
}

// renderFigure7 renders Figure 7 from plan-ordered cell results — a pure
// function of serializable cell records, no simulator calls.
func renderFigure7(w io.Writer, g grid, rs cellResults) map[string]map[int][3]float64 {
	res := aggregateSweep(rs, len(g.seeds))
	fmt.Fprintln(w, "Figure 7: Abort rates relative to 2PL")
	out := make(map[string]map[int][3]float64)
	for _, name := range g.workloads {
		out[name] = make(map[int][3]float64)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "%s\tthreads\t2PL\tSONTM\tSI-TM\n", name)
		for _, th := range g.threads {
			base := res[sweepKey{Workload: name, Engine: TwoPL, Threads: th}]
			cs := res[sweepKey{Workload: name, Engine: SONTM, Threads: th}]
			si := res[sweepKey{Workload: name, Engine: SITM, Threads: th}]
			rel := func(r Result) float64 {
				if base.Aborts == 0 {
					if r.Aborts == 0 {
						return 0
					}
					return 1
				}
				return r.Aborts / base.Aborts
			}
			row := [3]float64{1, rel(cs), rel(si)}
			if base.Aborts == 0 {
				row[0] = 0
			}
			out[name][th] = row
			fmt.Fprintf(tw, "\t%d\t%.4f\t%.4f\t%.4f\n", th, row[0], row[1], row[2])
		}
		tw.Flush()
	}
	return out
}

// Fig8Threads are the x-axis points of Figure 8.
var Fig8Threads = []int{1, 2, 4, 8, 16, 32}

// Figure8 measures application speedup — simulated-cycle throughput
// normalised to the same engine at one thread — for every benchmark and
// engine, and writes one table per benchmark.
func Figure8(w io.Writer, o Options) map[string]map[string][]float64 {
	return mustRender(w, "figure8", 0, o).(map[string]map[string][]float64)
}

// renderFigure8 renders Figure 8 from plan-ordered cell results — a pure
// function of serializable cell records, no simulator calls.
func renderFigure8(w io.Writer, g grid, rs cellResults) map[string]map[string][]float64 {
	res := aggregateSweep(rs, len(g.seeds))
	fmt.Fprintln(w, "Figure 8: Application speedup (throughput vs 1 thread)")
	out := make(map[string]map[string][]float64)
	for _, name := range g.workloads {
		out[name] = make(map[string][]float64)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "%s\tthreads\t2PL\tSONTM\tSI-TM\n", name)
		series := make(map[EngineKind][]float64)
		for _, kind := range g.engines {
			base := res[sweepKey{Workload: name, Engine: kind, Threads: 1}].Throughput
			for _, th := range g.threads {
				r := res[sweepKey{Workload: name, Engine: kind, Threads: th}]
				sp := 0.0
				if base > 0 {
					sp = r.Throughput / base
				}
				series[kind] = append(series[kind], sp)
			}
			out[name][kind] = series[kind]
		}
		for i, th := range g.threads {
			fmt.Fprintf(tw, "\t%d\t%.2f\t%.2f\t%.2f\n", th, series[TwoPL][i], series[SONTM][i], series[SITM][i])
		}
		tw.Flush()
	}
	return out
}

// Table1 writes the simulated architecture parameters (Table 1).
func Table1(w io.Writer) {
	cfg := cache.DefaultConfig()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Table 1: Simulated Architecture")
	fmt.Fprintf(tw, "CPU cores\t32 (logical threads)\n")
	fmt.Fprintf(tw, "L1D cache size\t%d KByte, 4-way, %d cycles\n", cfg.L1SizeBytes>>10, cfg.L1Latency)
	fmt.Fprintf(tw, "L2 cache size\t%d KByte, 8-way, %d cycles\n", cfg.L2SizeBytes>>10, cfg.L2Latency)
	fmt.Fprintf(tw, "L3 cache size\t%d MByte, 16-way, %d cycles (8 MByte MVM partition)\n", cfg.L3SizeBytes>>20, cfg.L3Latency)
	fmt.Fprintf(tw, "Memory latency\t%d cycles\n", cfg.MemLatency)
	fmt.Fprintf(tw, "Translation cache\t%d entries\n", cfg.XlateEntries)
	tw.Flush()
}

// Table2 runs every benchmark on SI-TM with an unbounded MVM at the given
// thread count and writes the per-version access histogram of Appendix A:
// the paper finds <1% of accesses target versions older than the 4th.
func Table2(w io.Writer, threads int, o Options) map[string][6]uint64 {
	return mustRender(w, "table2", threads, o).(map[string][6]uint64)
}

// renderTable2 renders Table 2 from plan-ordered cell results — a pure
// function of serializable cell records, no simulator calls.
func renderTable2(w io.Writer, g grid, rs cellResults) map[string][6]uint64 {
	threads := g.threads[0]
	res := aggregateSweep(rs, len(g.seeds))
	fmt.Fprintf(w, "Table 2: Number of accesses to specific MVM versions (%d threads, unbounded)\n", threads)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\t1st\t2nd\t3rd\t4th\t5th\ttail\tolder-than-4th %")
	out := make(map[string][6]uint64)
	for _, name := range g.workloads {
		r := res[sweepKey{Workload: name, Engine: SITM, Threads: threads}]
		var row [6]uint64
		copy(row[:5], r.MVM.AccessDepth[:])
		row[5] = r.MVM.AccessTail
		out[name] = row
		var total, old uint64
		for i, v := range row {
			total += v
			if i >= 4 {
				old += v
			}
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(old) / float64(total)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%.3f\n", name, row[0], row[1], row[2], row[3], row[4], row[5], pct)
	}
	tw.Flush()
	return out
}
