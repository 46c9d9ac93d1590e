package main

import (
	"encoding/json"
	"os"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/mvm"
	"repro/internal/sched"
	"repro/internal/tm"
	"repro/internal/txlib"
)

// span is one timed call into a layer. Spans of one cell share the cell
// string as their trace id; every span but the cell's root has the root
// as its parent.
type span struct {
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Cell   string  `json:"cell"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"ts"`  // µs since the traced pass began
	Dur    float64 `json:"dur"` // µs
}

// tracedRound is the traced driver's record of one round.
type tracedRound struct {
	WallS float64 `json:"wall_s"` // host time of the traced pass
	// LayerS sums span durations by span name, in seconds.
	LayerS        map[string]float64 `json:"layer_s"`
	Sched         sched.Stats        `json:"sched"`
	Cache         cache.Stats        `json:"cache"`
	MVM           mvm.Stats          `json:"mvm"`
	Commits       uint64             `json:"commits"`
	Aborts        uint64             `json:"aborts"`
	Stalls        uint64             `json:"stalls"`
	BackoffCycles uint64             `json:"backoff_cycles"`
	// Attempts counts commits plus aborts per engine layer.
	Attempts map[string]uint64 `json:"attempts"`
	CellsSHA string            `json:"cells_sha256"`
	Spans    []span            `json:"spans,omitempty"`
}

// engineLayers maps registry engine names onto their module names.
var engineLayers = map[string]string{harness.SITM: "core", harness.TwoPL: "twopl", harness.SONTM: "sontm"}

// spansPerCell is the number of spans traceCell records: ten calls and
// the cell's root.
const spansPerCell = 11

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	origin time.Time
	last   time.Time // end of the latest span
	spans  []span
}

// call runs f as the next child span of cell id. A cell's child spans
// tile it: each starts where the previous one ended, so every moment of
// the cell is attributed, the tracer's own bookkeeping to the span that
// follows it (trace_overhead measures that bookkeeping).
func (t *tracer) call(id, name, layer string, f func()) {
	f()
	end := time.Now()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Cell: id, Parent: "cell",
		Start: micros(t.last.Sub(t.origin)), Dur: micros(end.Sub(t.last))})
	t.last = end
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// traceRound runs every cell of the plan through the traced driver.
func traceRound(fp harness.FigurePlan) (tracedRound, error) {
	eopts := engineOptions(fp.Config)
	eopts.CacheScratch = cache.NewScratch()
	bo := backoff(fp.Config)
	tr := tracedRound{LayerS: map[string]float64{}, Attempts: map[string]uint64{}}
	// Preallocated, so that no slice growth lands between a cell's spans.
	t := &tracer{origin: time.Now(), spans: make([]span, 0, spansPerCell*len(fp.Plan))}
	results := make([]exp.CellResult, len(fp.Plan))
	for i, c := range fp.Plan {
		r, err := traceCell(t, &tr, c, fp.Config, eopts, bo)
		if err != nil {
			return tr, err
		}
		results[i] = r
	}
	tr.WallS = time.Since(t.origin).Seconds()
	for _, s := range t.spans {
		if s.Parent != "" {
			tr.LayerS[s.Name] += s.Dur / 1e6
		}
	}
	tr.Spans = t.spans
	var err error
	tr.CellsSHA, err = cellsDigest(fp.Plan, results)
	return tr, err
}

// traceCell runs one cell with exp.ExecuteCell's public call sequence,
// timing each call and reading each layer's counters from its accessors.
func traceCell(t *tracer, tr *tracedRound, c exp.Cell, cfg exp.CellConfig, eopts tm.EngineOptions, bo tm.BackoffConfig) (exp.CellResult, error) {
	factory, err := harness.WorkloadByName(c.Workload)
	if err != nil {
		return exp.CellResult{}, err
	}
	id := c.String()
	layer := engineLayers[c.Engine]
	start := time.Now()
	t.last = start

	var (
		w   exp.Workload
		e   tm.Engine
		m   *txlib.Mem
		s   *sched.Sim
		res exp.CellResult
	)
	t.call(id, "workload.new", "workload", func() { w = factory() })
	t.call(id, "tm.new_engine", "tm", func() { e, err = tm.NewEngine(c.Engine, eopts) })
	if err != nil {
		return res, err
	}
	t.call(id, "txlib.new_mem", "txlib", func() { m = txlib.NewMem(e) })
	t.call(id, "workload.setup", "workload", func() { w.Setup(m, c.Threads) })
	t.call(id, "sched.new", "sched", func() {
		s = sched.New(c.Threads, c.Seed)
		s.SetPerEvent(cfg.PerEvent)
	})
	t.call(id, layer+".run", "sched", func() {
		s.Run(func(th *sched.Thread) { w.Run(m, th, bo) })
	})
	// Validate before reading the counters: exp.ExecuteCell's composite
	// literal evaluates its Validate call before the plain field loads of
	// the engine's stats, so a validation transaction counts as a commit.
	var msg string
	t.call(id, "workload.validate", "workload", func() { msg = w.Validate(m) })
	t.call(id, "tm.stats", "tm", func() {
		st := e.Stats()
		res = exp.CellResult{
			Workload:    w.Name(),
			Commits:     st.Commits,
			ReadOnly:    st.ReadOnly,
			CommitHist:  st.CommitHist,
			Aborts:      st.TotalAborts(),
			RWAborts:    st.Aborts[tm.AbortReadWrite],
			WWAborts:    st.Aborts[tm.AbortWriteWrite],
			OtherAborts: st.Aborts[tm.AbortOrder] + st.Aborts[tm.AbortCapacity] + st.Aborts[tm.AbortSkew],
			SimCycles:   s.Makespan(),
			Sched:       s.Stats(),
			ValidateMsg: msg,
		}
		tr.Commits += st.Commits
		tr.Aborts += res.Aborts
		tr.Stalls += st.Stalls
		tr.BackoffCycles += st.BackoffNs
		tr.Attempts[layer] += st.Commits + res.Aborts
		tr.Sched.Add(res.Sched)
	})
	t.call(id, "mvm.stats", "mvm", func() {
		if si, ok := e.(*core.Engine); ok {
			res.MVM = si.MVM().Stats()
			addMVM(&tr.MVM, res.MVM)
		}
	})
	t.call(id, "cache.release", "cache", func() {
		if cs, ok := e.(interface{ CacheStats() cache.Stats }); ok {
			addCache(&tr.Cache, cs.CacheStats())
		}
		if r, ok := e.(releaser); ok {
			r.ReleaseCaches()
		}
	})

	t.spans = append(t.spans, span{Name: "cell", Layer: "exp", Cell: id,
		Start: micros(start.Sub(t.origin)), Dur: micros(t.last.Sub(start))})
	return res, nil
}

func addMVM(dst *mvm.Stats, s mvm.Stats) {
	for i := range s.AccessDepth {
		dst.AccessDepth[i] += s.AccessDepth[i]
	}
	dst.AccessTail += s.AccessTail
	dst.Installs += s.Installs
	dst.Coalesced += s.Coalesced
	dst.GCReclaimed += s.GCReclaimed
	dst.DroppedOld += s.DroppedOld
	dst.StaleReads += s.StaleReads
}

func addCache(dst *cache.Stats, s cache.Stats) {
	dst.L1Hits += s.L1Hits
	dst.L2Hits += s.L2Hits
	dst.L3Hits += s.L3Hits
	dst.MemAccesses += s.MemAccesses
	dst.XlateHits += s.XlateHits
	dst.XlateMisses += s.XlateMisses
	dst.Accesses += s.Accesses
}

// versionedReads counts the transactional reads the MVM served.
func versionedReads(s mvm.Stats) uint64 {
	n := s.AccessTail
	for _, d := range s.AccessDepth {
		n += d
	}
	return n
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// writeChromeTrace writes the spans of every traced round as Chrome
// trace-event JSON, one process lane per round.
func writeChromeTrace(path string, rounds []*tracedRound) error {
	var events []chromeEvent
	for i, r := range rounds {
		for _, s := range r.Spans {
			args := map[string]string{"cell": s.Cell}
			if s.Parent != "" {
				args["parent"] = s.Parent
			}
			events = append(events, chromeEvent{Name: s.Name, Cat: s.Layer, Ph: "X",
				Ts: s.Start, Dur: s.Dur, Pid: i + 1, Tid: 1, Args: args})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
