package main

import (
	"math"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndMetrics are what a user of the reproduction waits for, from the
// untraced rounds: the time to one rendered figure (per seed slice), the
// simulator's speed, the set-up time and the peak memory of a round's
// process. Times are in reference-host seconds (calibrate) and are
// medians over the run's rounds; peak memory, which varies with GC
// timing, is their mean.
func endToEndMetrics(rounds []round) map[string]metric {
	var figure, setup, rss []float64
	var sweep float64
	var cycles uint64
	for _, r := range rounds {
		if r.Result == nil {
			continue
		}
		rss = append(rss, r.RSSMB)
		figure = append(figure, r.Result.SweepS*r.Result.scale())
		setup = append(setup, r.Result.SetupS*r.Result.scale())
		sweep += r.Result.SweepS * r.Result.scale()
		cycles += r.Result.SimCycles
	}
	return map[string]metric{
		"figure_s":          {median(figure), "s"},
		"sim_mcycles_per_s": {ratio(float64(cycles)/1e6, sweep), "Mcycles/s"},
		"setup_s":           {median(setup), "s"},
		"peak_rss_mb":       {ratio(sum(rss), float64(len(rss))), "MB"},
	}
}

// layerMetrics attribute the traced rounds' host time and events to the
// simulator's layers, as means per round, plus the per-event cost model.
func layerMetrics(rounds []round, c eventCosts) map[string]metric {
	var (
		n                       float64
		walls                   []float64
		overhead, sweep, traced float64
		layer                   = map[string]float64{}
		tr                      tracedRound
	)
	tr.Attempts = map[string]uint64{}
	for _, r := range rounds {
		if r.Result == nil || r.Result.Trace == nil {
			continue
		}
		t := r.Result.Trace
		n++
		walls = append(walls, r.Result.CellWallS...)
		overhead += r.Result.SweepS - sum(r.Result.CellWallS)
		sweep += r.Result.SweepS
		traced += t.WallS
		for k, v := range t.LayerS {
			layer[k] += v
		}
		tr.Sched.Add(t.Sched)
		addCache(&tr.Cache, t.Cache)
		addMVM(&tr.MVM, t.MVM)
		tr.Commits += t.Commits
		tr.Aborts += t.Aborts
		tr.Stalls += t.Stalls
		tr.BackoffCycles += t.BackoffCycles
		for k, v := range t.Attempts {
			tr.Attempts[k] += v
		}
	}
	m := map[string]metric{}
	perRound := func(name, unit string, v float64) { m[name] = metric{ratio(v, n), unit} }
	count := func(name string, v uint64) { perRound(name, "count/round", float64(v)) }

	runS := layer["core.run"] + layer["twopl.run"] + layer["sontm.run"]
	perRound("tm.new_engine_s", "s/round", layer["tm.new_engine"])
	perRound("workload.setup_s", "s/round", layer["workload.setup"])
	perRound("sched.run_s", "s/round", runS)
	for _, l := range []string{"core", "twopl", "sontm"} {
		perRound(l+".run_s", "s/round", layer[l+".run"])
	}
	perRound("workload.validate_s", "s/round", layer["workload.validate"])
	perRound("cache.release_s", "s/round", layer["cache.release"])
	perRound("exp.overhead_s", "s/round", overhead)
	m["exp.cell_ms.p50"] = metric{1e3 * percentile(walls, 0.50), "ms"}
	m["exp.cell_ms.p90"] = metric{1e3 * percentile(walls, 0.90), "ms"}
	m["exp.cell_ms.n"] = metric{float64(len(walls)), "count"}

	count("sched.coroutine_switches", tr.Sched.CoroutineSwitches)
	count("sched.inline_ticks", tr.Sched.InlineTicks)
	count("sched.batched_events", tr.Sched.BatchedEvents)
	count("sched.local_ticks", tr.Sched.LocalTicks)
	count("cache.accesses", tr.Cache.Accesses)
	count("cache.l1_hits", tr.Cache.L1Hits)
	count("cache.l2_hits", tr.Cache.L2Hits)
	count("cache.l3_hits", tr.Cache.L3Hits)
	count("cache.mem_accesses", tr.Cache.MemAccesses)
	count("cache.xlate_misses", tr.Cache.XlateMisses)
	count("mvm.installs", tr.MVM.Installs)
	count("mvm.versioned_reads", versionedReads(tr.MVM))
	count("mvm.coalesced", tr.MVM.Coalesced)
	count("mvm.gc_reclaimed", tr.MVM.GCReclaimed)
	count("tm.commits", tr.Commits)
	count("tm.aborts", tr.Aborts)
	count("tm.stalls", tr.Stalls)
	m["tm.commit_ratio"] = metric{ratio(float64(tr.Commits), float64(tr.Commits+tr.Aborts)), "ratio"}
	perRound("tm.backoff_mcycles", "Mcycles/round", float64(tr.BackoffCycles)/1e6)

	m["sched.switch_ns"] = metric{c.SwitchNs, "ns"}
	m["sched.tick_ns"] = metric{c.TickNs, "ns"}
	m["cache.l1_hit_ns"] = metric{c.L1HitNs, "ns"}
	m["cache.mem_miss_ns"] = metric{c.MemMissNs, "ns"}
	m["mvm.install_ns"] = metric{c.InstallNs, "ns"}
	m["mvm.read_ns"] = metric{c.ReadNs, "ns"}
	for l, ns := range c.CommitNs {
		m[l+".commit_ns"] = metric{ns, "ns"}
	}

	// The cost model: event counts times per-event cost. The residual is
	// the simulation time no modelled layer accounts for (aset, mem,
	// clock and the workloads' own code land there).
	s := tr.Sched
	schedS := (float64(s.CoroutineSwitches)*c.SwitchNs +
		float64(s.InlineTicks+s.BatchedEvents+s.LocalTicks)*c.TickNs) / 1e9
	cacheS := (float64(tr.Cache.L1Hits)*c.L1HitNs +
		float64(tr.Cache.Accesses-tr.Cache.L1Hits)*c.MemMissNs) / 1e9
	mvmS := (float64(tr.MVM.Installs)*c.InstallNs + float64(versionedReads(tr.MVM))*c.ReadNs) / 1e9
	var engS float64
	for l, a := range tr.Attempts {
		engS += float64(a) * c.CommitNs[l] / 1e9
	}
	perRound("sched.modelled_s", "s/round", schedS)
	perRound("cache.modelled_s", "s/round", cacheS)
	perRound("mvm.modelled_s", "s/round", mvmS)
	perRound("engines.modelled_s", "s/round", engS)
	perRound("residual_s", "s/round", runS-schedS-cacheS-mvmS-engS)
	m["trace_overhead"] = metric{ratio(traced, sweep) - 1, "ratio"}
	return m
}

// ratio is a/b, or 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile is the nearest-rank q-quantile of v (0 for no samples); the
// median of an even count averages the two middle values.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}
