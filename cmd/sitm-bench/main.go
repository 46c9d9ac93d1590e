// Command sitm-bench regenerates the tables and figures of the SI-TM
// paper's evaluation (§6) on the simulated machine:
//
//	sitm-bench -fig 1          Figure 1: RW vs WW abort breakdown in 2PL
//	sitm-bench -fig 7          Figure 7: abort rates relative to 2PL
//	sitm-bench -fig 8          Figure 8: application speedup curves
//	sitm-bench -table 1        Table 1: simulated architecture
//	sitm-bench -table 2        Table 2 / Appendix A: MVM version accesses
//	sitm-bench -all            everything above
//	sitm-bench -oltp           Figure OLTP: serving-tier abort rates and
//	                           p50/p99/p999 commit-latency tails (not in -all,
//	                           which keeps the paper set byte-stable)
//
// Flags -seeds, -threads, -workers, -workload, -word, -dropoldest and
// -nobackoff expose the evaluation's knobs and ablations. -workload
// accepts the paper workloads and the OLTP tier names (kv[@theta],
// ledger[@theta], e.g. kv@0.99). Sweeps are
// experiment plans executed on a shared-nothing worker pool; -workers
// bounds the pool (default: one worker per CPU) and the output is
// byte-identical at any worker count. The requested sections are planned
// together and each distinct cell is simulated once: Figure 1's and
// Figure 7's cells are Figure 8's.
//
// -cache-dir names a persistent content-addressed result cache: every
// cell result is stored under a key hashing the cell, its configuration
// and fingerprints of the simulation sources, so a re-run with an
// unchanged tree simulates nothing and an engine edit recomputes only
// that engine's cells. Figure bytes are identical cold or warm.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/plot"
	"repro/internal/report"
	"repro/internal/sched"
)

// startProfiles begins the optional CPU profile and returns the function
// that stops it and writes the optional heap profile. The returned stop is
// idempotent so it can run both deferred and before os.Exit paths. Profile
// failures are diagnostics, not sweep failures: they warn on stderr.
func startProfiles(cpuPath, memPath string) (stop func()) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sitm-bench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "sitm-bench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		cpuFile = f
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "sitm-bench: -cpuprofile: %v\n", err)
			} else {
				fmt.Printf("wrote %s\n", cpuPath)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sitm-bench: -memprofile: %v\n", err)
				return
			}
			runtime.GC() // materialise the post-sweep live set
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "sitm-bench: -memprofile: %v\n", err)
				return
			}
			fmt.Printf("wrote %s\n", memPath)
		}
	}
}

func main() {
	var (
		fig        = flag.Int("fig", 0, "figure to regenerate (1, 7 or 8)")
		table      = flag.Int("table", 0, "table to regenerate (1 or 2)")
		all        = flag.Bool("all", false, "regenerate every figure and table of the paper set (excludes -oltp)")
		oltp       = flag.Bool("oltp", false, "regenerate the OLTP serving-tier figure: Zipfian kv/ledger abort rates and p50/p99/p999 commit-latency tails per engine, skew and thread count")
		threads    = flag.Int("threads", 32, "thread count for Figure 1 / Table 2")
		seeds      = flag.String("seeds", "1,2,3", "seeds to average over: N for seeds 1..N (the paper uses -seeds 5), or a comma-separated list of explicit seeds")
		workers    = flag.Int("workers", 0, "experiment-runner worker pool size (0 = one per CPU); results do not depend on it")
		workload   = flag.String("workload", "", "restrict sweeps to these comma-separated workloads (default: all); includes the OLTP tier names kv[@theta] and ledger[@theta]")
		progress   = flag.Bool("progress", false, "print per-cell progress to stderr as the sweep runs")
		word       = flag.Bool("word", false, "enable SI-TM word-granularity conflict filtering (§4.2)")
		dropOldest = flag.Bool("dropoldest", false, "use the drop-oldest version policy instead of abort-fifth (§3.1)")
		noBackoff  = flag.Bool("nobackoff", false, "replace exponential backoff with a constant delay (§6.4 ablation)")
		perEvent   = flag.Bool("per-event", false, "disable the conductor's horizon batching: schedule strictly per event (differential baseline; figure bytes are identical either way)")
		csvDir     = flag.String("csv", "", "also write figure7.csv / figure8.csv / table2.csv into this directory")
		verify     = flag.Bool("verify", false, "check the measured data against the paper's qualitative shapes and exit non-zero on deviation")
		chart      = flag.Bool("chart", false, "also render Figure 7/8 series as ASCII charts")
		scale      = flag.Int("scale", 1, "workload size multiplier (larger approaches the paper's inputs)")
		mvmStats   = flag.Bool("mvm", false, "report the §3 MVM behaviour (coalescing, GC, overheads, dedup) per workload")
		cacheDir   = flag.String("cache-dir", "", "content-addressed result cache directory: cells whose key (cell + config + source fingerprints) is already stored are served without simulating; figure bytes are identical either way")
		jsonPath   = flag.String("json", "", "write a machine-readable record of the invocation (distinct cells, wall time, simulated cycles and conductor counters) to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile covering the sweeps to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile, taken after the sweeps complete, to this file")
	)
	flag.Parse()

	// stopProfiles flushes -cpuprofile / -memprofile once the sweeps are
	// done. It runs both deferred and explicitly before every later
	// os.Exit path, so a failing -verify still leaves usable profiles.
	stopProfiles := startProfiles(*cpuProfile, *memProfile)
	defer stopProfiles()

	o := harness.DefaultOptions()
	o.WordGranularity = *word
	o.DropOldest = *dropOldest
	o.NoBackoff = *noBackoff
	o.PerEvent = *perEvent
	o.Scale = *scale
	o.Workers = *workers
	var err error
	if o.Seeds, err = parseSeeds(*seeds); err != nil {
		fmt.Fprintf(os.Stderr, "sitm-bench: %v\n", err)
		os.Exit(2)
	}
	for _, err := range []error{checkFigTable(), checkThreads(*threads), checkScale(*scale), checkWorkers(*workers), checkJSON(*jsonPath), checkCSV(*csvDir)} {
		if err != nil {
			fmt.Fprintf(os.Stderr, "sitm-bench: %v\n", err)
			os.Exit(2)
		}
	}
	if *workload != "" {
		for _, name := range strings.Split(*workload, ",") {
			name = strings.TrimSpace(name)
			f, err := harness.WorkloadByName(name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sitm-bench: %v\n", err)
				os.Exit(2)
			}
			// Canonical form, so "kv" and "KV@0.99" address the same cells.
			o.Only = append(o.Only, f().Name())
		}
	}
	var names []string
	for _, s := range []struct {
		name string
		on   bool
	}{
		{"table1", *all || *table == 1},
		{"figure1", *all || *fig == 1},
		{"figure7", *all || *fig == 7},
		{"figure8", *all || *fig == 8},
		{"table2", *all || *table == 2},
		{"mvm", *all || *mvmStats},
		{"figure-oltp", *oltp},
	} {
		if s.on {
			names = append(names, s.name)
		}
	}
	if err := checkWorkloadCells(names, *workload, *threads, o); err != nil {
		fmt.Fprintf(os.Stderr, "sitm-bench: %v\n", err)
		os.Exit(2)
	}
	if *cacheDir != "" {
		c, err := exp.OpenCache(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sitm-bench: %v\n", err)
			os.Exit(2)
		}
		o.Cache = c
	}
	if *progress {
		o.Progress = func(p exp.Progress) {
			tag := "run"
			if p.Cached {
				tag = "hit"
			}
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s %s (%s)\n", p.Done, p.Total, p.Cell, tag, p.Wall.Round(time.Millisecond))
		}
	}
	var bench *benchCollector
	if *jsonPath != "" {
		bench = newBenchCollector(o.Workers, o.Seeds, *perEvent)
		o.CellDone = bench.cellDone
	}

	ran := len(names) > 0
	start := time.Now()
	secs, err := harness.RenderSections(names, *threads, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sitm-bench: %v\n", err)
		os.Exit(1)
	}
	wall := time.Since(start).Seconds()
	var findings report.Findings
	for _, s := range secs {
		os.Stdout.Write(s.Text)
		switch data := s.Data.(type) {
		case []harness.Result: // Figure 1
			if *verify {
				shares := make(map[string]float64, len(data))
				for _, r := range data {
					if t := r.RWAborts + r.WWAborts; t > 0 {
						shares[r.Workload] = r.RWAborts / t
					}
				}
				findings = append(findings, report.CheckFigure1(shares)...)
			}
		case map[string]map[int][3]float64: // Figure 7
			writeCSV(*csvDir, "figure7.csv", func(w *os.File) error { return harness.WriteFigure7CSV(w, data) })
			if *chart {
				chartFigure7(data)
			}
			if *verify {
				findings = append(findings, report.CheckFigure7(data)...)
			}
		case map[string]map[string][]float64: // Figure 8
			writeCSV(*csvDir, "figure8.csv", func(w *os.File) error { return harness.WriteFigure8CSV(w, data) })
			if *chart {
				chartFigure8(data)
			}
			if *verify {
				findings = append(findings, report.CheckFigure8(data, harness.Fig8Threads)...)
			}
		case map[string][6]uint64: // Table 2
			writeCSV(*csvDir, "table2.csv", func(w *os.File) error { return harness.WriteTable2CSV(w, data) })
			if *verify {
				findings = append(findings, report.CheckTable2(data)...)
			}
		}
		fmt.Println()
	}
	stopProfiles()
	if o.Cache != nil && ran {
		st := o.Cache.Stats()
		fmt.Fprintf(os.Stderr, "cache %s: %d cells served warm, %d computed and stored\n", *cacheDir, st.Hits, st.Puts)
		if err := o.Cache.LastError(); err != nil {
			fmt.Fprintf(os.Stderr, "sitm-bench: cache (non-fatal): %v\n", err)
		}
	}
	if bench != nil && ran {
		if err := bench.write(*jsonPath, wall); err != nil {
			fmt.Fprintf(os.Stderr, "sitm-bench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if *verify {
		fmt.Println("Shape verification against the paper's claims:")
		fmt.Print(findings)
		if !findings.AllOK() {
			os.Exit(1)
		}
	}
}

// checkFigTable rejects a -fig or -table value that names no figure or
// table. An unset flag keeps its zero default, which requests nothing.
func checkFigTable() error {
	var err error
	flag.Visit(func(f *flag.Flag) {
		v := f.Value.String()
		switch {
		case err != nil:
		case f.Name == "fig" && v != "1" && v != "7" && v != "8":
			err = fmt.Errorf("bad -fig %s: figure must be 1, 7 or 8", v)
		case f.Name == "table" && v != "1" && v != "2":
			err = fmt.Errorf("bad -table %s: table must be 1 or 2", v)
		}
	})
	return err
}

// checkWorkloadCells rejects a -workload list that leaves every requested
// section that simulates cells with none to simulate, which would print
// empty sections and exit 0.
func checkWorkloadCells(names []string, workload string, threads int, o harness.Options) error {
	if len(o.Only) == 0 {
		return nil
	}
	all := o
	all.Only = nil
	var swept []string
	for _, name := range names {
		full, err := harness.PlanFigure(name, threads, all)
		if err != nil {
			return err
		}
		if len(full.Plan) == 0 {
			continue // static section: no cells with any workloads
		}
		fp, err := harness.PlanFigure(name, threads, o)
		if err != nil {
			return err
		}
		if len(fp.Plan) > 0 {
			return nil
		}
		swept = append(swept, name)
	}
	if len(swept) == 0 {
		return nil
	}
	return fmt.Errorf("bad -workload %s: no cells in %s", workload, strings.Join(swept, ", "))
}

// checkThreads rejects a -threads value the simulator cannot run.
func checkThreads(n int) error {
	if n < 1 || n > sched.MaxThreads {
		return fmt.Errorf("bad -threads %d: thread count must be in 1..%d", n, sched.MaxThreads)
	}
	return nil
}

// checkScale rejects a -scale value below 1, which the workloads would
// silently run at scale 1, and one above harness.MaxScale, whose sizes
// would not allocate.
func checkScale(n int) error {
	if n < 1 || n > harness.MaxScale {
		return fmt.Errorf("bad -scale %d: workload size multiplier must be in 1..%d", n, harness.MaxScale)
	}
	return nil
}

// checkWorkers rejects a negative -workers value, which the runner would
// silently take as one worker per CPU.
func checkWorkers(n int) error {
	if n < 0 {
		return fmt.Errorf("bad -workers %d: worker count must be 0 (one per CPU) or more", n)
	}
	return nil
}

// checkJSON rejects a -json path whose directory does not exist, which
// would otherwise fail only after the whole sweep.
func checkJSON(path string) error {
	if path == "" {
		return nil
	}
	if dir := filepath.Dir(path); !isDir(dir) {
		return fmt.Errorf("bad -json %s: directory %s does not exist", path, dir)
	}
	return nil
}

// checkCSV rejects a -csv path that is not an existing directory.
func checkCSV(dir string) error {
	if dir != "" && !isDir(dir) {
		return fmt.Errorf("bad -csv %s: not an existing directory", dir)
	}
	return nil
}

func isDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// parseSeeds interprets the -seeds flag. A bare integer N expands to the
// seeds 1..N, so the paper's 5-seed averaging is `-seeds 5`; a value with
// commas is an explicit seed list (a single explicit seed can be written
// with a trailing comma, e.g. `-seeds 7,`).
func parseSeeds(s string) ([]uint64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("empty -seeds")
	}
	if !strings.Contains(s, ",") {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -seeds %q: %v", s, err)
		}
		if n == 0 || n > 1<<16 {
			return nil, fmt.Errorf("bad -seeds %d: seed count must be in 1..%d", n, 1<<16)
		}
		seeds := make([]uint64, n)
		for i := range seeds {
			seeds[i] = uint64(i + 1)
		}
		return seeds, nil
	}
	var seeds []uint64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %v", part, err)
		}
		seeds = append(seeds, v)
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("empty -seeds list %q", s)
	}
	return seeds, nil
}

// chartFigure7 renders the abort-ratio series per benchmark (log y).
func chartFigure7(data map[string]map[int][3]float64) {
	for _, name := range sortedNames(data) {
		rows := data[name]
		var ticks []string
		series := []plot.Series{{Name: "2PL"}, {Name: "SONTM"}, {Name: "SI-TM"}}
		for _, th := range harness.Fig7Threads {
			ticks = append(ticks, strconv.Itoa(th))
			row := rows[th]
			for e := 0; e < 3; e++ {
				series[e].Points = append(series[e].Points, row[e])
			}
		}
		c := plot.Chart{
			Title: name + " — aborts relative to 2PL", XLabel: "threads",
			YLabel: "rel. aborts (log)", XTicks: ticks, Series: series, LogY: true,
		}
		if err := c.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "sitm-bench: chart: %v\n", err)
			return
		}
		fmt.Println()
	}
}

// chartFigure8 renders the speedup curves per benchmark.
func chartFigure8(data map[string]map[string][]float64) {
	for _, name := range sortedNames(data) {
		var ticks []string
		for _, th := range harness.Fig8Threads {
			ticks = append(ticks, strconv.Itoa(th))
		}
		var series []plot.Series
		for _, engine := range []string{"2PL", "SONTM", "SI-TM"} {
			if pts, ok := data[name][engine]; ok {
				series = append(series, plot.Series{Name: engine, Points: pts})
			}
		}
		c := plot.Chart{
			Title: name + " — speedup", XLabel: "threads",
			YLabel: "x over 1 thread", XTicks: ticks, Series: series,
		}
		if err := c.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "sitm-bench: chart: %v\n", err)
			return
		}
		fmt.Println()
	}
}

// sortedNames returns map keys in sorted order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// writeCSV writes one CSV artefact into dir when -csv is set.
func writeCSV(dir, name string, fill func(*os.File) error) {
	if dir == "" {
		return
	}
	path := dir + string(os.PathSeparator) + name
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sitm-bench: writing %s: %v\n", path, err)
		os.Exit(1)
	}
	err = fill(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sitm-bench: writing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}
