package harness

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// MVMRow summarises the §3 multiversioned-memory behaviour of one
// workload run under SI-TM.
type MVMRow struct {
	Workload     string
	Installs     uint64
	CoalescedPct float64 // §3.1 version coalescing effectiveness
	GCReclaimed  uint64  // versions reclaimed on writes
	PeakVersions int     // deepest version list observed
	OverheadPct  float64 // §3.2 indirection storage overhead
	SharablePct  float64 // §3.3 deduplication opportunity
	Stalls       uint64  // starter stalls on the commit window
}

// MVMReport runs every workload on SI-TM at the given thread count and
// writes a table of the §3.1–§3.3 measurements: how often version
// coalescing collapses versions, how much the write-driven GC reclaims,
// the deepest version list, the indirection storage overhead, and the
// deduplication opportunity of the indirection layer. The cells run on
// the options' worker pool (one isolated simulation per workload, first
// seed only) and through the options' result cache when configured;
// rendering is a pure function of the returned cell records
// (renderMVMReport).
func MVMReport(w io.Writer, threads int, o Options) []MVMRow {
	return mustRender(w, "mvm", threads, o).([]MVMRow)
}

// renderMVMReport renders the §3 table from plan-ordered cell records —
// no simulator calls, so it renders identically from a warm cache.
func renderMVMReport(w io.Writer, g grid, rs cellResults) []MVMRow {
	threads, seed := g.threads[0], g.seeds[0]
	fmt.Fprintf(w, "MVM behaviour under SI-TM (%d threads, seed %d)\n", threads, seed)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tinstalls\tcoalesced %\tgc reclaimed\tpeak versions\toverhead %\tsharable %\tstalls")
	var out []MVMRow
	for _, r := range rs {
		cs := r.Value
		row := MVMRow{
			Workload:     cs.Workload,
			Installs:     cs.MVM.Installs,
			GCReclaimed:  cs.MVM.GCReclaimed,
			PeakVersions: cs.MVM.PeakVersions,
			OverheadPct:  cs.OverheadPct,
			SharablePct:  cs.SharablePct,
			Stalls:       cs.Stalls,
		}
		if cs.MVM.Installs > 0 {
			row.CoalescedPct = 100 * float64(cs.MVM.Coalesced) / float64(cs.MVM.Installs)
		}
		out = append(out, row)
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%d\t%d\t%.1f\t%.1f\t%d\n",
			row.Workload, row.Installs, row.CoalescedPct, row.GCReclaimed,
			row.PeakVersions, row.OverheadPct, row.SharablePct, row.Stalls)
	}
	tw.Flush()
	return out
}
