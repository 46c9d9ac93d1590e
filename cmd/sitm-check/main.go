// Command sitm-check model-checks the transactional memory engines: it
// drives each litmus program through every schedule the simulator admits
// (sched.RunChoose + depth-first prefix replay), classifies every
// distinct history against the snapshot-isolation axioms, and fails if
// any engine admits behaviour outside its family's contract — see
// DESIGN.md "Model checking".
//
//	sitm-check                         all litmus programs x all engines
//	sitm-check -list                   show the litmus library
//	sitm-check -engine SI-TM -litmus bank -v
//	sitm-check -variants               also check the Reference* option
//	                                   variants admit identical history sets
//
// The 2-thread programs are exhausted outright; the 3- and 4-thread
// programs stop at -max-schedules (0 explores them exhaustively), and
// verdicts about *admitted* anomalies become lower bounds (the tool says
// which).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/mc"
	"repro/internal/tm"

	// All engines self-register with the tm engine registry.
	_ "repro/internal/core"
	_ "repro/internal/sontm"
	_ "repro/internal/twopl"
)

func main() {
	var (
		engine  = flag.String("engine", "all", "engine to check, or all: "+strings.Join(tm.Engines(), ", "))
		litmus  = flag.String("litmus", "all", "litmus program to check, or all: "+strings.Join(mc.ProgramNames(), ", "))
		maxSch  = flag.Int("max-schedules", 200000, "schedule bound per cell, 0 for none; 2-thread programs exhaust below it")
		variant = flag.Bool("variants", false, "also run the ReferenceSets and ReferenceCache variants and require identical history sets")
		list    = flag.Bool("list", false, "list the litmus programs and exit")
		verbose = flag.Bool("v", false, "print every distinct history with its verdict")
	)
	flag.Parse()
	if *maxSch < 0 {
		fmt.Fprintf(os.Stderr, "sitm-check: bad -max-schedules %d: the bound must be 0 (none) or positive\n", *maxSch)
		os.Exit(2)
	}

	if *list {
		for _, p := range mc.Programs() {
			fmt.Printf("%-12s %d threads  %s\n", p.Name, len(p.Threads), p.Doc)
		}
		return
	}

	engines := tm.Engines()
	if *engine != "all" {
		if _, err := tm.NewEngine(*engine, tm.EngineOptions{}); err != nil {
			fmt.Fprintf(os.Stderr, "sitm-check: %v\n", err)
			os.Exit(2)
		}
		engines = []string{*engine}
	}
	progs := mc.Programs()
	if *litmus != "all" {
		p, err := mc.ProgramByName(*litmus)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sitm-check: %v\n", err)
			os.Exit(2)
		}
		progs = []mc.Program{p}
	}

	opts := mc.Options{MaxSchedules: *maxSch}
	failed := false
	for _, eng := range engines {
		fam, err := mc.EngineFamily(eng, tm.EngineOptions{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sitm-check: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("%s (%s)\n", eng, fam)
		for _, prog := range progs {
			if !checkCell(prog, eng, fam, opts, *variant, *verbose) {
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// checkCell explores one (program, engine) cell, prints its summary line
// (and evidence for failures) and reports whether it passed.
func checkCell(prog mc.Program, eng string, fam mc.Family, opts mc.Options, variants, verbose bool) bool {
	r, err := mc.RunLitmus(prog, eng, tm.EngineOptions{}, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sitm-check: %v\n", err)
		os.Exit(2)
	}
	scope := "exhaustive"
	if !r.Explored.Exhausted {
		scope = fmt.Sprintf("bounded at %d; admitted anomalies are a lower bound", opts.MaxSchedules)
	}
	violations := r.Violations(fam)
	verdict := "ok"
	if len(violations) > 0 {
		verdict = "FAIL"
	}
	fmt.Printf("  %-12s %6d schedules (%s), %3d histories, admitted=[%s]  %s\n",
		prog.Name, r.Explored.Schedules, scope, len(r.Histories), r.Admitted, verdict)
	if verbose {
		for _, hv := range r.Histories {
			fmt.Printf("    %4dx  %-18s %s\n", hv.Count, hv.Class.Anomalies(), hv.Key)
		}
	}
	for _, v := range violations {
		fmt.Printf("    violation: %s\n", v)
	}
	// For non-serializable histories, show the dependency-cycle evidence.
	if len(violations) > 0 || verbose {
		printCycles(prog, r)
	}
	ok := len(violations) == 0
	if variants {
		ok = checkVariants(prog, eng, opts, r) && ok
	}
	return ok
}

// printCycles prints the DSG cyclic components of each non-serializable
// history — the explanation behind a write-skew or serializability
// verdict.
func printCycles(prog mc.Program, r *mc.Result) {
	varName := func(v int) string { return prog.VarNames[v] }
	shown := 0
	for _, hv := range r.Histories {
		if hv.Class.Serializable || !hv.Class.SnapshotReads {
			continue
		}
		g := mc.DSG(hv.Hist, prog.Init, len(prog.Threads), varName)
		comps := g.CyclicComponents()
		if len(comps) == 0 {
			continue
		}
		fmt.Printf("    cycle in %q:", hv.Key)
		for _, comp := range comps {
			for _, from := range comp {
				for _, e := range g.Edges(from) {
					fmt.Printf(" T%d-%s(%s)->T%d", from, e.Kind, e.Label, e.To)
				}
			}
		}
		fmt.Println()
		if shown++; shown >= 3 {
			fmt.Println("    (further cycles elided)")
			return
		}
	}
}

// checkVariants re-explores the cell under the differential option
// variants and requires the identical history set: the fast paths they
// shadow must never change simulated behaviour.
func checkVariants(prog mc.Program, eng string, opts mc.Options, base *mc.Result) bool {
	ok := true
	for _, v := range []struct {
		name string
		opts tm.EngineOptions
	}{
		{"reference-sets", tm.EngineOptions{ReferenceSets: true}},
		{"reference-cache", tm.EngineOptions{ReferenceCache: true}},
	} {
		r, err := mc.RunLitmus(prog, eng, v.opts, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sitm-check: %v\n", err)
			os.Exit(2)
		}
		if !equalKeys(r.HistoryKeys(), base.HistoryKeys()) {
			fmt.Printf("    violation: %s variant admits a different history set (%d vs %d histories)\n",
				v.name, len(r.Histories), len(base.Histories))
			ok = false
		}
	}
	if ok {
		fmt.Printf("    variants: reference-sets, reference-cache history sets identical\n")
	}
	return ok
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
