package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/oltp"
)

// The OLTP serving-tier figure: abort rates and deterministic
// commit-latency tails (p50/p99/p999 simulated cycles) for the Zipfian
// KV and ledger workloads across engines, skews and thread counts. This
// is the paper's §1 claim measured at serving scale: under SI-TM the
// long analytical read-only scans commit without aborting writers, which
// shows up here as zero read-write aborts and a bounded commit tail,
// while the eager baselines pay for every scan.

// OLTPThetas are the Zipfian skews of the figure-oltp grid, spanning
// near-uniform to the YCSB-default hot-head regime.
var OLTPThetas = []float64{0.50, 0.90, 0.99}

// OLTPThreads are the thread counts of the figure-oltp grid.
var OLTPThreads = []int{8, 32}

// OLTPWorkloads returns the default figure-oltp workload names: both
// serving tiers at every grid skew, in canonical name form.
func OLTPWorkloads() []string {
	var names []string
	for _, base := range []string{"kv", "ledger"} {
		for _, theta := range OLTPThetas {
			names = append(names, fmt.Sprintf("%s@%.2f", base, theta))
		}
	}
	return names
}

// oltpFigureNames resolves the workload set of one figure-oltp render:
// the default grid, or — when o.Only is set — the subset of o.Only that
// parses as tier names, canonicalised (so "kv" and "KV@0.99" select the
// same column). Non-tier Only entries select nothing here, mirroring how
// the paper figures ignore Only entries outside their workload set.
func oltpFigureNames(o Options) []string {
	if len(o.Only) == 0 {
		return OLTPWorkloads()
	}
	var names []string
	seen := make(map[string]bool)
	for _, only := range o.Only {
		f, isOLTP, err := oltp.ByName(only)
		if !isOLTP || err != nil {
			continue
		}
		if name := f().Name(); !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	return names
}

// FigureOLTP sweeps the serving-tier grid and writes one table per
// workload: per thread count and engine, seed-averaged commit and
// read-only-commit counts, the abort rate, and the merged commit-latency
// quantiles in simulated cycles.
func FigureOLTP(w io.Writer, o Options) map[sweepKey]Result {
	return mustRender(w, "figure-oltp", 0, o).(map[sweepKey]Result)
}

// renderFigureOLTP renders the figure from plan-ordered cell results — a
// pure function of serializable cell records, no simulator calls.
func renderFigureOLTP(w io.Writer, g grid, rs cellResults) map[sweepKey]Result {
	res := aggregateSweep(rs, len(g.seeds))
	fmt.Fprintln(w, "Figure OLTP: serving-tier abort rates and commit-latency tails (cycles)")
	for _, name := range g.workloads {
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "%s\tthreads\tengine\tcommits\tro-commits\tabort %%\tp50\tp99\tp999\n", name)
		for _, th := range g.threads {
			for _, kind := range g.engines {
				r := res[sweepKey{Workload: name, Engine: kind, Threads: th}]
				fmt.Fprintf(tw, "\t%d\t%s\t%.1f\t%.1f\t%.2f\t%d\t%d\t%d\n",
					th, kind, r.Commits, r.ROCommits, 100*r.AbortRate,
					r.CommitHist.Quantile(0.50), r.CommitHist.Quantile(0.99), r.CommitHist.Quantile(0.999))
			}
		}
		tw.Flush()
	}
	return res
}
