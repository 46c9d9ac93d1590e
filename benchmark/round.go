package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/mvm"
	"repro/internal/report"
	"repro/internal/tm"
	"repro/internal/txlib"
)

// roundResult is what a child process reports for one round.
type roundResult struct {
	Seeds []uint64 `json:"seeds"`
	// SetupS is the set-up pass (untraced rounds only): workload factory,
	// engine, memory and Workload.Setup for every cell, then a GC.
	SetupS float64 `json:"setup_s,omitempty"`
	// SweepS is the host time of the RenderFigureText call.
	SweepS float64 `json:"sweep_s"`
	// CalibS is the mean of the calibrations just before and just after
	// the sweep (untraced rounds only).
	CalibS float64 `json:"calib_s,omitempty"`
	// CellWallS are the per-cell walls the runner reported (exp.Progress).
	CellWallS []float64 `json:"cell_wall_s"`
	SimCycles uint64    `json:"sim_cycles"`
	// Invalid lists "cell: message" for every cell whose Validate failed.
	Invalid   []string     `json:"invalid,omitempty"`
	FigureSHA string       `json:"figure_sha256"`
	CellsSHA  string       `json:"cells_sha256"`
	Trace     *tracedRound `json:"trace,omitempty"`
}

// scale converts the round's host seconds into reference-host seconds.
func (r *roundResult) scale() float64 {
	if r.CalibS == 0 {
		return 1
	}
	return math.Pow(refCalibS/r.CalibS, calibSlope)
}

// runRound executes one round in this process: the set-up pass (untraced
// only), the sweep through the real figure path, and with traced the same
// plan again through the traced driver.
func runRound(w workload, unit uint64, traced bool) (roundResult, error) {
	fp, err := w.plan(unit)
	if err != nil {
		return roundResult{}, err
	}
	res := roundResult{Seeds: w.seeds(unit)}
	if !traced {
		if res.SetupS, err = setupPass(fp); err != nil {
			return res, err
		}
		// Calibrating in this process, right around the sweep, tracks the
		// host speed the sweep saw better than calibrating in the parent.
		res.CalibS = calibrate()
	}

	o := w.options(unit)
	cells := make(map[exp.Cell]exp.CellResult, len(fp.Plan))
	// With one worker both callbacks run on the calling goroutine.
	o.Progress = func(p exp.Progress) { res.CellWallS = append(res.CellWallS, p.Wall.Seconds()) }
	o.CellDone = func(c exp.Cell, r exp.CellResult) { cells[c] = r }
	start := time.Now()
	text, err := harness.RenderFigureText(w.figure, w.threads, o)
	res.SweepS = time.Since(start).Seconds()
	if err != nil {
		return res, err
	}
	if !traced {
		res.CalibS = (res.CalibS + calibrate()) / 2
	}
	sum := sha256.Sum256(text)
	res.FigureSHA = hex.EncodeToString(sum[:])

	results := make([]exp.CellResult, len(fp.Plan))
	for i, c := range fp.Plan {
		r, ok := cells[c]
		if !ok {
			return res, fmt.Errorf("cell %s missing from the sweep", c)
		}
		results[i] = r
		res.SimCycles += r.SimCycles
		if r.ValidateMsg != "" {
			res.Invalid = append(res.Invalid, c.String()+": "+r.ValidateMsg)
		}
	}
	if res.CellsSHA, err = cellsDigest(fp.Plan, results); err != nil {
		return res, err
	}

	if traced {
		tr, err := traceRound(fp)
		if err != nil {
			return res, err
		}
		res.Trace = &tr
	}
	return res, nil
}

// setupPass builds every cell of the plan up to the point the simulation
// would start — workload factory, registry engine, memory, Workload.Setup
// — then releases the simulated caches and collects the garbage.
func setupPass(fp harness.FigurePlan) (float64, error) {
	eopts := engineOptions(fp.Config)
	eopts.CacheScratch = cache.NewScratch()
	start := time.Now()
	for _, c := range fp.Plan {
		factory, err := harness.WorkloadByName(c.Workload)
		if err != nil {
			return 0, err
		}
		w := factory()
		e, err := tm.NewEngine(c.Engine, eopts)
		if err != nil {
			return 0, err
		}
		w.Setup(txlib.NewMem(e), c.Threads)
		if r, ok := e.(releaser); ok {
			r.ReleaseCaches()
		}
	}
	runtime.GC()
	return time.Since(start).Seconds(), nil
}

// releaser is the engine surface that returns pooled cache arrays.
type releaser interface{ ReleaseCaches() }

// engineOptions maps a cell configuration onto the registry's engine
// options, as exp.ExecuteCell does (benchmark_test.go pins the two
// drivers' results against each other).
func engineOptions(c exp.CellConfig) tm.EngineOptions {
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

// backoff is the retry policy exp.ExecuteCell uses for c.
func backoff(c exp.CellConfig) tm.BackoffConfig {
	if c.NoBackoff {
		return tm.BackoffConfig{Enabled: true, Base: 32, MaxShift: 0}
	}
	return tm.DefaultBackoff()
}

// cellCounters are the canonical per-cell counters behind cells_sha256.
// Conductor counters (sched_stats) are left out on purpose: they change
// when the conductor batches differently while every simulated result
// stays the same.
type cellCounters struct {
	Cell        string      `json:"cell"`
	Workload    string      `json:"workload"`
	Commits     uint64      `json:"commits"`
	ReadOnly    uint64      `json:"read_only"`
	Aborts      uint64      `json:"aborts"`
	RWAborts    uint64      `json:"rw_aborts"`
	WWAborts    uint64      `json:"ww_aborts"`
	OtherAborts uint64      `json:"other_aborts"`
	SimCycles   uint64      `json:"sim_cycles"`
	CommitHist  report.Hist `json:"commit_hist"`
	MVM         mvm.Stats   `json:"mvm"`
}

// cellsDigest hashes the canonical counters of plan-ordered results.
func cellsDigest(plan exp.Plan, results []exp.CellResult) (string, error) {
	h := sha256.New()
	for i, r := range results {
		line, err := json.Marshal(cellCounters{
			Cell: plan[i].String(), Workload: r.Workload,
			Commits: r.Commits, ReadOnly: r.ReadOnly, Aborts: r.Aborts,
			RWAborts: r.RWAborts, WWAborts: r.WWAborts, OtherAborts: r.OtherAborts,
			SimCycles: r.SimCycles, CommitHist: r.CommitHist, MVM: r.MVM,
		})
		if err != nil {
			return "", err
		}
		h.Write(append(line, '\n'))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
