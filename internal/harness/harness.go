// Package harness runs the paper's evaluation (§6): it sweeps workloads ×
// TM engines × thread counts on the deterministic machine simulator,
// averages runs over seeds, and renders the text equivalents of Figure 1
// (read-write vs write-write abort breakdown under 2PL), Figure 7 (abort
// rates relative to 2PL), Figure 8 (application speedup) and Table 2 /
// Appendix A (accesses per MVM version depth).
//
// The package is the *figure layer* of the experiment stack: it builds
// experiment plans (internal/exp), hands them to the cell layer's
// CellRunner — which executes each (workload, engine, threads, seed)
// cell as one isolated deterministic simulation, optionally memoized
// through a content-addressed result cache (Options.Cache) — and renders
// figures as pure functions of the returned serializable cell results.
// One table (sections) names each section's cells and renderer;
// RenderSections renders any list of sections and simulates every
// distinct cell among them once.
// Engines are constructed through the tm engine registry; each cell
// builds its own engine, memory hierarchy and workload instance
// (shared-nothing), so the lowest-cycle-first schedule inside a cell is
// unaffected by how many cells run concurrently and all reports are
// byte-identical at any worker count, and identical whether cells were
// simulated or served from a warm cache.
package harness

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/exp"
	"repro/internal/micro"
	"repro/internal/mvm"
	"repro/internal/oltp"
	"repro/internal/report"
	"repro/internal/stamp"

	// Engine packages self-register with the tm registry.
	_ "repro/internal/core"
	_ "repro/internal/sontm"
	_ "repro/internal/twopl"
)

// Workload is the surface the microbenchmarks and STAMP kernels expose;
// they satisfy it structurally. It is defined by the cell layer
// (internal/exp) and aliased here for the workload registry.
type Workload = exp.Workload

// Scalable is implemented by workloads whose input sizes can be grown
// toward the paper's scale (Options.Scale).
type Scalable = exp.Scalable

// MaxScale is the largest Options.Scale that sitm-bench's -scale flag and
// sweep plans accept; both are checked against it before any simulation
// starts. Its basis is that every workload's scaled sizes must still
// allocate. At 1024 the largest set-up slice, Bayes's task seeds (30·scale
// per thread at sched.MaxThreads), is 240 MiB; Array seeds 2 Mi padded
// lines; and the quadratic spans, Bayes's (48·scale)² adjacency words and
// Labyrinth's (24·scale)²·3 grid, are reserved but not touched. Much
// larger values outgrow host memory and then overflow the allocator (a
// makeslice panic inside a worker). The paper's inputs need at most 15.
const MaxScale = 1024

// EngineKind names a TM implementation in the tm engine registry.
type EngineKind = string

const (
	// TwoPL is the eager requester-wins baseline (§6.1).
	TwoPL EngineKind = "2PL"
	// SONTM is the conflict-serializable baseline (§6.1).
	SONTM EngineKind = "SONTM"
	// SITM is the paper's snapshot-isolation TM (§4).
	SITM EngineKind = "SI-TM"
	// SSITM is serializable SI-TM (§5.2).
	SSITM EngineKind = "SSI-TM"
)

// Options tunes a run.
type Options struct {
	// Seeds to average over; the paper averages 5 runs with different
	// random seeds. Defaults to {1, 2, 3}.
	Seeds []uint64
	// Workers bounds the experiment runner's worker pool; 0 means one
	// worker per available CPU (runtime.GOMAXPROCS). Results do not
	// depend on the worker count.
	Workers int
	// Progress, when non-nil, receives a callback after each completed
	// plan cell (completion order, serialised), including whether the
	// cell was served from the result cache.
	Progress func(exp.Progress)
	// Only restricts figure sweeps to these workload names
	// (case-insensitive); empty selects every workload of the figure.
	// Validate names with WorkloadByName before building plans.
	Only []string
	// Cache, when non-nil, memoizes cell results across runs: cells
	// whose content-address (cell coordinates + configuration + source
	// fingerprints) is already stored are served without simulating.
	// Figure bytes are identical either way.
	Cache *exp.Cache
	// NoBackoff replaces the tuned exponential backoff with a minimal
	// constant (jittered, non-growing) delay — the §6.4 ablation
	// ("without exponential backoff 2PL and CS show even higher abort
	// rates"). A literal zero delay would let the eager engines
	// livelock forever under the deterministic scheduler, which is the
	// very pathology the paper's tuning avoids.
	NoBackoff bool
	// UnboundedVersions configures SI-TM's MVM with no version bound
	// (the Table 2 / Appendix A measurement).
	UnboundedVersions bool
	// WordGranularity enables SI-TM's §4.2 word-level conflict filter.
	WordGranularity bool
	// NoCoalescing disables version coalescing (ablation).
	NoCoalescing bool
	// DropOldest selects the alternative version-overflow policy.
	DropOldest bool
	// NoXlate disables the translation cache (ablation).
	NoXlate bool
	// Scale multiplies workload input sizes (1 = the fast defaults;
	// larger values approach the paper's configurations at the cost of
	// wall-clock time). At most MaxScale.
	Scale int
	// PerEvent runs the fast tree conductor with horizon batching
	// disabled: every charge goes through the per-event protocol, as it
	// did before multi-event quanta existed. Figures are byte-identical
	// either way — the knob exists as the differential baseline for the
	// batched conductor and as the reference point for the
	// coroutine-switch counters in sched_stats.
	PerEvent bool
	// CellDone, when non-nil, receives every completed cell and its
	// full result record (the benchmark harness sums makespans into a
	// simulated-throughput figure and accumulates scheduler counters).
	// It is called from worker goroutines concurrently; callers must
	// synchronise, e.g. with a mutex or atomic counters.
	CellDone func(c exp.Cell, res exp.CellResult)

	// measureMVM additionally runs the §3.1–§3.3 MVM measurements
	// (overheads, dedup) per cell; set internally by the mvm section.
	measureMVM bool
	// refSched runs every cell under the reference conductor
	// (sched.Sim.RunChoose with sched.DefaultChooser) instead of the
	// inline fast path; the differential tests use it to pin
	// byte-identical figure output.
	refSched bool
	// refCache runs every cell with the reference memory-hierarchy
	// model (cache.SlowHierarchy) instead of the way-predicted fast
	// path; the differential tests use it to pin byte-identical figure
	// output.
	refCache bool
	// refSets runs every cell with the reference map-based access-set
	// implementation (each engine's slow.go) instead of the
	// signature-backed internal/aset fast path; the differential tests
	// use it to pin byte-identical figure output.
	refSets bool
	// refStore runs every cell with the retained dense mem backing
	// behind the engines' per-line tables and presence filters instead
	// of the paged O(touched) store; the differential tests use it to
	// pin byte-identical figure output.
	refStore bool
}

// DefaultOptions returns the evaluation defaults.
func DefaultOptions() Options { return Options{Seeds: []uint64{1, 2, 3}} }

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if len(o.Seeds) == 0 {
		o.Seeds = []uint64{1, 2, 3}
	}
	return o
}

// cellConfig maps the harness knobs onto the cell layer's serializable
// cell configuration — the part of Options that participates in cache
// keys because it changes simulated results.
func (o Options) cellConfig() exp.CellConfig {
	return exp.CellConfig{
		WordGranularity:   o.WordGranularity,
		UnboundedVersions: o.UnboundedVersions,
		DropOldest:        o.DropOldest,
		NoCoalescing:      o.NoCoalescing,
		NoXlate:           o.NoXlate,
		NoBackoff:         o.NoBackoff,
		Scale:             o.Scale,
		MeasureMVM:        o.measureMVM,
		RefSched:          o.refSched,
		PerEvent:          o.PerEvent,
		RefCache:          o.refCache,
		RefSets:           o.refSets,
		RefStore:          o.refStore,
	}
}

// cellRunner assembles the cell layer's executor for these options and
// the cell configuration cfg: the worker pool, the workload registry and
// the optional result cache.
func (o Options) cellRunner(cfg exp.CellConfig) exp.CellRunner {
	return exp.CellRunner{
		Runner:   exp.Runner{Workers: o.Workers, Progress: o.Progress},
		Config:   cfg,
		Resolve:  WorkloadByName,
		Cache:    o.Cache,
		CellDone: o.CellDone,
	}
}

// filterWorkloads restricts names to o.Only (case-insensitive), keeping
// the input order; an empty Only keeps all names.
func (o Options) filterWorkloads(names []string) []string {
	if len(o.Only) == 0 {
		return names
	}
	var out []string
	for _, name := range names {
		for _, only := range o.Only {
			if strings.EqualFold(name, only) {
				out = append(out, name)
				break
			}
		}
	}
	return out
}

// Result aggregates one workload × engine × thread-count cell, averaged
// over seeds.
type Result struct {
	Engine   string
	Workload string
	Threads  int

	Commits     float64
	Aborts      float64
	RWAborts    float64
	WWAborts    float64
	OtherAborts float64
	ROCommits   float64 // committed with an empty write set
	AbortRate   float64 // aborts / (commits+aborts)
	Makespan    float64 // simulated cycles
	Throughput  float64 // commits per 1000 simulated cycles
	// CommitHist merges the per-seed commit-latency histograms: the
	// quantiles it reports cover every committed transaction of every
	// seed (merged, not averaged — quantiles do not average).
	CommitHist  report.Hist
	MVM         mvm.Stats
	ValidateMsg string
}

// aggregate folds the per-seed cell records of one sweep point into a
// seed-averaged Result. It is a pure function of serialized cell
// results: the floats it averages come from exact integer counters, so a
// record loaded from the cache aggregates byte-identically to one just
// simulated.
func aggregate(engine EngineKind, threads int, cells []exp.CellResult) Result {
	agg := Result{Engine: engine, Threads: threads}
	for _, c := range cells {
		agg.Workload = c.Workload
		agg.Commits += float64(c.Commits)
		agg.Aborts += float64(c.Aborts)
		agg.RWAborts += float64(c.RWAborts)
		agg.WWAborts += float64(c.WWAborts)
		agg.OtherAborts += float64(c.OtherAborts)
		agg.ROCommits += float64(c.ReadOnly)
		agg.CommitHist.Add(&c.CommitHist)
		agg.Makespan += float64(c.SimCycles)
		if c.ValidateMsg != "" && agg.ValidateMsg == "" {
			agg.ValidateMsg = c.ValidateMsg
		}
		agg.MVM.AccessTail += c.MVM.AccessTail
		for i := range c.MVM.AccessDepth {
			agg.MVM.AccessDepth[i] += c.MVM.AccessDepth[i]
		}
		agg.MVM.Coalesced += c.MVM.Coalesced
		agg.MVM.Installs += c.MVM.Installs
		agg.MVM.GCReclaimed += c.MVM.GCReclaimed
		agg.MVM.DroppedOld += c.MVM.DroppedOld
		if c.MVM.PeakVersions > agg.MVM.PeakVersions {
			agg.MVM.PeakVersions = c.MVM.PeakVersions
		}
	}
	n := float64(len(cells))
	agg.Commits /= n
	agg.Aborts /= n
	agg.RWAborts /= n
	agg.WWAborts /= n
	agg.OtherAborts /= n
	agg.ROCommits /= n
	agg.Makespan /= n
	if agg.Commits+agg.Aborts > 0 {
		agg.AbortRate = agg.Aborts / (agg.Commits + agg.Aborts)
	}
	if agg.Makespan > 0 {
		agg.Throughput = agg.Commits / agg.Makespan * 1000
	}
	return agg
}

// Run executes workload (built fresh per seed by factory) on the named
// engine with the given thread count and returns seed-averaged results.
// The per-seed cells run on the options' worker pool (and through the
// options' result cache, when configured).
func Run(kind EngineKind, factory func() Workload, threads int, o Options) Result {
	o = o.withDefaults()
	name := factory().Name()
	plan := make(exp.Plan, 0, len(o.Seeds))
	for _, seed := range o.Seeds {
		plan = append(plan, exp.Cell{Workload: name, Engine: kind, Threads: threads, Seed: seed})
	}
	cr := o.cellRunner(o.cellConfig())
	cr.Resolve = func(string) (func() Workload, error) { return factory, nil }
	rs, err := cr.Run(plan)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	return aggregate(kind, threads, exp.Values(rs))
}

// sweepKey addresses one seed-averaged point of a sweep.
type sweepKey struct {
	Workload string
	Engine   EngineKind
	Threads  int
}

// aggregateSweep folds plan-ordered cell results — produced by a plan
// built with exp.Cross over o.Seeds innermost — into seed-averaged
// results keyed by sweep point. It is the pure aggregation half of a
// sweep: it touches no simulator, only serializable cell records.
func aggregateSweep(rs []exp.Result[exp.CellResult], nSeeds int) map[sweepKey]Result {
	out := make(map[sweepKey]Result, len(rs)/nSeeds)
	for i := 0; i < len(rs); i += nSeeds {
		cells := exp.Values(rs[i : i+nSeeds])
		c := rs[i].Cell
		out[sweepKey{Workload: c.Workload, Engine: c.Engine, Threads: c.Threads}] =
			aggregate(c.Engine, c.Threads, cells)
	}
	return out
}

// Registry returns the workload factories in the paper's presentation
// order: the three microbenchmarks followed by the seven STAMP kernels.
func Registry() []func() Workload {
	return []func() Workload{
		func() Workload { return micro.NewArray() },
		func() Workload { return micro.NewList() },
		func() Workload { return micro.NewRBTree() },
		func() Workload { return stamp.NewGenome() },
		func() Workload { return stamp.NewIntruder() },
		func() Workload { return stamp.NewKmeans() },
		func() Workload { return stamp.NewLabyrinth() },
		func() Workload { return stamp.NewVacation() },
		func() Workload { return stamp.NewSSCA2() },
		func() Workload { return stamp.NewBayes() },
	}
}

// registryNames returns the workload names in presentation order.
func registryNames() []string {
	var names []string
	for _, f := range Registry() {
		names = append(names, f().Name())
	}
	return names
}

// WorkloadByName returns the registry entry for name (case-insensitive).
// Names outside the registry resolve through the OLTP serving tier
// ("kv", "ledger", optionally with a "@theta" skew suffix). Unknown
// names return an error listing the valid workload and tier names; a
// tier name with a malformed or out-of-range theta returns the tier's
// error.
func WorkloadByName(name string) (func() Workload, error) {
	for _, f := range Registry() {
		if strings.EqualFold(f().Name(), name) {
			return f, nil
		}
	}
	if of, isOLTP, err := oltp.ByName(name); isOLTP {
		if err != nil {
			return nil, err
		}
		return func() Workload { return of() }, nil
	}
	return nil, fmt.Errorf("harness: unknown workload %q (valid: %s)",
		name, strings.Join(append(Workloads(), oltp.TierNames()...), ", "))
}

// Workloads lists the registered workload names.
func Workloads() []string {
	names := registryNames()
	sort.Strings(names)
	return names
}
