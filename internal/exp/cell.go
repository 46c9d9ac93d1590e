package exp

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mvm"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/tm"
	"repro/internal/txlib"
)

// Workload is the surface the microbenchmarks and STAMP kernels expose;
// they satisfy it structurally. It lives in the cell layer so one cell —
// a fully specified simulation — is self-contained: the figure renderers
// above never see a workload, only serialized cell results.
type Workload interface {
	Name() string
	Setup(m *txlib.Mem, threads int)
	Run(m *txlib.Mem, th *sched.Thread, bo tm.BackoffConfig)
	Validate(m *txlib.Mem) string
}

// Scalable is implemented by workloads whose input sizes can be grown
// toward the paper's scale (CellConfig.Scale).
type Scalable interface {
	Scale(factor int)
}

// CellConfig is the simulation-affecting configuration of a cell, in a
// plain serializable form: together with the Cell itself (workload,
// engine, threads, seed) and the code provenance it fully determines the
// cell's result. Every field participates in the content-address
// (Provenance.CellKey), so two cells with different configs never share a
// cache entry.
type CellConfig struct {
	// WordGranularity enables SI-TM's §4.2 word-level conflict filter.
	WordGranularity bool `json:"word_granularity,omitempty"`
	// UnboundedVersions configures SI-TM's MVM with no version bound
	// (the Table 2 / Appendix A measurement).
	UnboundedVersions bool `json:"unbounded_versions,omitempty"`
	// DropOldest selects the alternative version-overflow policy (§3.1).
	DropOldest bool `json:"drop_oldest,omitempty"`
	// NoCoalescing disables version coalescing (ablation).
	NoCoalescing bool `json:"no_coalescing,omitempty"`
	// NoXlate disables the translation cache (ablation).
	NoXlate bool `json:"no_xlate,omitempty"`
	// NoBackoff replaces the tuned exponential backoff with a minimal
	// constant delay (§6.4 ablation).
	NoBackoff bool `json:"no_backoff,omitempty"`
	// Scale multiplies workload input sizes; values <= 1 mean the fast
	// defaults.
	Scale int `json:"scale,omitempty"`
	// MeasureMVM additionally runs the §3.1–§3.3 MVM measurements
	// (overheads, dedup) per cell.
	MeasureMVM bool `json:"measure_mvm,omitempty"`
	// RefSched runs the cell under the reference conductor
	// (sched.Sim.RunChoose with sched.DefaultChooser) instead of the
	// inline fast path.
	RefSched bool `json:"ref_sched,omitempty"`
	// PerEvent runs the tree conductor with horizon batching disabled
	// (sched.Sim.SetPerEvent): every charge goes through the per-event
	// protocol. It is the differential baseline the batched conductor is
	// pinned against, and the reference point for the coroutine-switch
	// counters in sched_stats.
	PerEvent bool `json:"per_event,omitempty"`
	// RefCache runs the cell with the reference memory-hierarchy model
	// (cache.SlowHierarchy) instead of the way-predicted fast path.
	RefCache bool `json:"ref_cache,omitempty"`
	// RefSets runs the cell with the reference map-based access-set
	// implementation instead of the internal/aset fast path.
	RefSets bool `json:"ref_sets,omitempty"`
	// RefStore runs the cell with the retained dense mem backing for the
	// engines' per-word/per-line tables, the MVM's version table and the
	// presence filters, instead of the paged fast path (mem.Paged).
	RefStore bool `json:"ref_store,omitempty"`
}

// engineOptions maps the cell knobs onto the registry's
// representation-independent engine options.
func (c CellConfig) engineOptions() tm.EngineOptions {
	return tm.EngineOptions{
		WordGranularity:   c.WordGranularity,
		UnboundedVersions: c.UnboundedVersions,
		DropOldest:        c.DropOldest,
		NoCoalescing:      c.NoCoalescing,
		NoXlate:           c.NoXlate,
		ReferenceCache:    c.RefCache,
		ReferenceSets:     c.RefSets,
		ReferenceStore:    c.RefStore,
	}
}

// backoff returns the retry policy. Every engine's software retry loop
// uses the tuned exponential backoff (the RSTM retry loops the paper
// builds on back off unconditionally); the paper additionally notes the
// two eager mechanisms *depend* on it to avoid livelock (§6.4) — the
// NoBackoff ablation shows that dependence. A literal zero delay would
// let the eager engines livelock forever under the deterministic
// scheduler, which is the very pathology the paper's tuning avoids.
func (c CellConfig) backoff() tm.BackoffConfig {
	if c.NoBackoff {
		return tm.BackoffConfig{Enabled: true, Base: 32, MaxShift: 0}
	}
	return tm.DefaultBackoff()
}

// CellResult is the self-contained, serializable record of one executed
// cell: everything the figure renderers aggregate, plus provenance. All
// counters are the engine's exact integers; the float conversions the
// renderers perform are deterministic, so a result loaded from the cache
// reproduces figure bytes exactly.
type CellResult struct {
	Workload    string    `json:"workload"`
	Commits     uint64    `json:"commits"`
	ReadOnly    uint64    `json:"read_only,omitempty"` // committed with an empty write set
	Aborts      uint64    `json:"aborts"`
	RWAborts    uint64    `json:"rw_aborts"`
	WWAborts    uint64    `json:"ww_aborts"`
	OtherAborts uint64    `json:"other_aborts"`
	SimCycles   uint64    `json:"sim_cycles"` // the simulation's makespan
	MVM         mvm.Stats `json:"mvm"`
	ValidateMsg string    `json:"validate_msg,omitempty"`

	// CommitHist is the cell's commit-latency distribution in simulated
	// cycles (see tm.Stats.CommitHist): deterministic integer buckets,
	// so cached cells reproduce p50/p99/p999 byte-exactly.
	CommitHist report.Hist `json:"commit_hist"`

	// Sched counts the conductor's work for the cell (deterministic, so
	// cacheable like every other counter). Diagnostic only: no figure or
	// table renders it, so batched and per-event runs of the same cell
	// produce byte-identical figures while differing here.
	Sched sched.Stats `json:"sched_stats"`

	// Filled only under CellConfig.MeasureMVM (the §3.1–§3.3 report).
	OverheadPct float64 `json:"overhead_pct,omitempty"`
	SharablePct float64 `json:"sharable_pct,omitempty"`
	Stalls      uint64  `json:"stalls,omitempty"`

	// Provenance of the run that produced this record (informational;
	// the cache key carries the authoritative source fingerprints).
	GitRevision string `json:"git_revision,omitempty"`
	GoVersion   string `json:"go_version,omitempty"`
}

// WarmState is the per-worker state of a sweep, built once per experiment
// worker and reused across all the cells that worker executes: the
// resolved engine options and backoff policy, plus a cache scratch pool
// that recycles the multi-megabyte simulated tag/stamp arrays between
// consecutive cells. None of it affects measured results — cells stay
// shared-nothing across workers and byte-identical at any worker count.
type WarmState struct {
	eopts tm.EngineOptions
	bo    tm.BackoffConfig
}

// NewWarmState builds the per-worker warm state for cfg.
func NewWarmState(cfg CellConfig) WarmState {
	eopts := cfg.engineOptions()
	eopts.CacheScratch = cache.NewScratch()
	return WarmState{eopts: eopts, bo: cfg.backoff()}
}

// releaser is the optional engine surface that returns pooled simulated
// cache arrays to the worker's scratch once a cell is measured.
type releaser interface{ ReleaseCaches() }

// ExecuteCell runs one plan cell as an isolated simulation: a fresh
// workload instance, a fresh engine from the registry and a fresh
// deterministic machine, sharing nothing with concurrently running cells.
// Only the warm state (scratch memory, resolved options) carries over
// between the cells of one worker.
func ExecuteCell(c Cell, cfg CellConfig, factory func() Workload, warm WarmState) CellResult {
	w := factory()
	if s, ok := w.(Scalable); ok && cfg.Scale > 1 {
		s.Scale(cfg.Scale)
	}
	e, err := tm.NewEngine(c.Engine, warm.eopts)
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	m := txlib.NewMem(e)
	w.Setup(m, c.Threads)
	s := sched.New(c.Threads, c.Seed)
	s.SetPerEvent(cfg.PerEvent)
	body := func(th *sched.Thread) { w.Run(m, th, warm.bo) }
	if cfg.RefSched {
		s.RunChoose(body, sched.DefaultChooser{})
	} else {
		s.Run(body)
	}

	st := e.Stats()
	res := CellResult{
		Workload:    w.Name(),
		Commits:     st.Commits,
		ReadOnly:    st.ReadOnly,
		CommitHist:  st.CommitHist,
		Aborts:      st.TotalAborts(),
		RWAborts:    st.Aborts[tm.AbortReadWrite],
		WWAborts:    st.Aborts[tm.AbortWriteWrite],
		OtherAborts: st.Aborts[tm.AbortOrder] + st.Aborts[tm.AbortCapacity] + st.Aborts[tm.AbortSkew],
		SimCycles:   s.Makespan(),
		ValidateMsg: w.Validate(m),
		Sched:       s.Stats(),
	}
	if si, ok := e.(*core.Engine); ok {
		res.MVM = si.MVM().Stats()
		if cfg.MeasureMVM {
			res.OverheadPct = si.MVM().MeasureOverheads(1).OverheadPct
			res.SharablePct = si.MVM().MeasureDedup().SharablePct()
			res.Stalls = st.Stalls
		}
	}
	if r, ok := e.(releaser); ok {
		r.ReleaseCaches()
	}
	return res
}

// CellRunner executes cell plans, optionally memoized through a
// content-addressed result cache. It is the seam between the cell layer
// and everything above it: the figure renderers and the sweep service
// both hand it plans and consume serializable CellResults.
type CellRunner struct {
	// Runner is the worker pool configuration (bound + progress).
	Runner Runner
	// Config is the simulation configuration shared by every cell of
	// the plan; it participates in each cell's cache key.
	Config CellConfig
	// Resolve maps a cell's workload name to its factory.
	Resolve func(workload string) (func() Workload, error)
	// Cache, when non-nil, serves cells whose provenance key is already
	// stored and records freshly computed cells.
	Cache *Cache
	// Prov is the code provenance used for cache keys. A zero value
	// resolves to CurrentProvenance() when a cache is configured.
	Prov Provenance
	// CellDone, when non-nil, receives every completed cell (hit or
	// computed) and its full result. It is called from worker goroutines
	// concurrently; callers must synchronise.
	CellDone func(c Cell, res CellResult)
}

// Run executes every cell of plan, serving cells from the cache where
// possible, and returns the results in plan order. Result.Cached reports
// per-cell whether the simulation was skipped.
func (cr CellRunner) Run(plan Plan) ([]Result[CellResult], error) {
	factories := make(map[string]func() Workload)
	for _, c := range plan {
		if _, ok := factories[c.Workload]; ok {
			continue
		}
		f, err := cr.Resolve(c.Workload)
		if err != nil {
			return nil, err
		}
		factories[c.Workload] = f
	}
	cache := cr.Cache
	prov := cr.Prov
	if cache != nil && prov.IsZero() {
		prov = CurrentProvenance()
	}
	if cache != nil && !prov.CanCache() {
		// Without usable provenance a cache entry could masquerade as a
		// result of the current tree; compute everything instead.
		cache = nil
	}
	rs := runWarm(cr.Runner, plan,
		func() WarmState { return NewWarmState(cr.Config) },
		func(i int, c Cell, warm WarmState) (CellResult, bool) {
			var key string
			if cache != nil {
				key = prov.CellKey(c, cr.Config)
				if res, ok := cache.Get(key); ok {
					if cr.CellDone != nil {
						cr.CellDone(c, res)
					}
					return res, true
				}
			}
			res := ExecuteCell(c, cr.Config, factories[c.Workload], warm)
			res.GitRevision = prov.GitRevision
			res.GoVersion = prov.GoVersion
			if cache != nil {
				if err := cache.Put(key, res); err != nil {
					// A failed store costs a recompute next run, never
					// correctness; the result itself stands.
					cache.noteError(err)
				}
			}
			if cr.CellDone != nil {
				cr.CellDone(c, res)
			}
			return res, false
		})
	return rs, nil
}
