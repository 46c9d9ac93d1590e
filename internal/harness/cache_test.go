package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/exp"
	"repro/internal/sched"
)

// cachedOpts is the quick options shape with a fresh result cache.
func cachedOpts(t *testing.T) Options {
	t.Helper()
	c, err := exp.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := quickOpts()
	o.Only = []string{"List", "Array"}
	o.Cache = c
	return o
}

// update regenerates the golden section digests and cost counts in
// testdata/ instead of checking them:
// go test ./internal/harness -run WarmVsCold -update.
var update = flag.Bool("update", false, "rewrite "+digestsPath+" and "+costsPath+" from the current renders")

// digestsPath holds the SHA-256 of every section's canonical bytes under
// TestFiguresAreByteIdenticalWarmVsCold's options. A change that moves a
// figure fails here until the digests are regenerated with -update, so
// the diff of this file is the record of every deliberate figure change.
const digestsPath = "testdata/digests.json"

// costsPath holds every section's conductor counters (sched_stats)
// summed over its cells under the same options. They are deterministic
// like the figure bytes but no figure renders them, so a change that
// moves the simulator's host cost — a coroutine switch batched away or
// added — fails here until the counts are regenerated with -update, and
// the diff of this file records which sections moved.
const costsPath = "testdata/costs.json"

// readGolden decodes the golden file at path into v.
func readGolden(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// writeGolden rewrites the golden file at path with v.
func writeGolden(t *testing.T, path string, v any) {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFiguresAreByteIdenticalWarmVsCold is the house differential test
// applied to the cache: every figure rendered from cached cell results
// must be byte-for-byte the figure rendered from live simulation. The
// cold bytes are also checked against the golden digests, and each
// section's summed conductor counters against the golden cost counts.
// Cells a section shares with an earlier one are served from the cache
// with the counters they were computed with, so every section sums the
// same counts in any order.
func TestFiguresAreByteIdenticalWarmVsCold(t *testing.T) {
	o := cachedOpts(t)
	// One serving-tier workload, so figure-oltp renders a table, not
	// just its header; the paper figures ignore it.
	o.Only = append(o.Only, "kv@0.50")
	want := make(map[string]string)
	wantCosts := make(map[string]sched.Stats)
	if !*update {
		readGolden(t, digestsPath, &want)
		readGolden(t, costsPath, &wantCosts)
	}
	got := make(map[string]string)
	gotCosts := make(map[string]sched.Stats)
	for _, figure := range FigureNames {
		var mu sync.Mutex
		var costs sched.Stats
		co := o
		co.CellDone = func(_ exp.Cell, res exp.CellResult) {
			mu.Lock()
			costs.Add(res.Sched)
			mu.Unlock()
		}
		cold, err := RenderFigureText(figure, 4, co)
		if err != nil {
			t.Fatal(err)
		}
		got[figure] = fmt.Sprintf("%x", sha256.Sum256(cold))
		gotCosts[figure] = costs
		if !*update && got[figure] != want[figure] {
			t.Errorf("%s: digest %s, golden %s (rerun with -update if the change is deliberate):\n%s",
				figure, got[figure], want[figure], cold)
		}
		if !*update && costs != wantCosts[figure] {
			t.Errorf("%s: sched_stats %+v, golden %+v (rerun with -update if the change is deliberate)",
				figure, costs, wantCosts[figure])
		}
		warm, err := RenderFigureText(figure, 4, o)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cold, warm) {
			t.Errorf("%s: warm render differs from cold:\ncold:\n%s\nwarm:\n%s", figure, cold, warm)
		}
		// And against a cacheless render — the cache must be invisible.
		plain := o
		plain.Cache = nil
		direct, err := RenderFigureText(figure, 4, plain)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(direct, warm) {
			t.Errorf("%s: cached render differs from uncached:\nuncached:\n%s\ncached:\n%s", figure, direct, warm)
		}
	}
	if *update {
		writeGolden(t, digestsPath, got)
		writeGolden(t, costsPath, gotCosts)
	}
}

// TestRepeatedSweepRecomputesNothing pins the acceptance criterion:
// re-running a figure sweep against an unchanged tree serves every cell
// from the cache.
func TestRepeatedSweepRecomputesNothing(t *testing.T) {
	o := cachedOpts(t)
	var buf bytes.Buffer
	Figure7(&buf, o) // cold: populates the cache

	var hits, computed int
	o.Progress = func(p exp.Progress) {
		if p.Cached {
			hits++
		} else {
			computed++
		}
	}
	Figure7(&buf, o)
	if computed != 0 {
		t.Fatalf("unchanged tree recomputed %d cells (%d hits)", computed, hits)
	}
	if hits == 0 {
		t.Fatal("warm sweep reported no progress at all")
	}
}

// TestPlanFigureCoversFigureSweep pins that PlanFigure enumerates exactly
// the cells the figure renders: warming the cache from the plan makes the
// subsequent render recompute nothing.
func TestPlanFigureCoversFigureSweep(t *testing.T) {
	for _, figure := range []string{"figure1", "figure7", "figure8", "table2", "mvm"} {
		o := cachedOpts(t)
		fp, err := PlanFigure(figure, 4, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(fp.Plan) == 0 {
			t.Fatalf("%s: empty plan", figure)
		}
		// Warm the cache from the plan alone, bypassing the renderers.
		cr := exp.CellRunner{
			Runner:  exp.Runner{},
			Config:  fp.Config,
			Resolve: WorkloadByName,
			Cache:   o.Cache,
		}
		if _, err := cr.Run(fp.Plan); err != nil {
			t.Fatal(err)
		}
		var computed int
		o.Progress = func(p exp.Progress) {
			if !p.Cached {
				computed++
			}
		}
		if _, err := RenderFigureText(figure, 4, o); err != nil {
			t.Fatal(err)
		}
		if computed != 0 {
			t.Errorf("%s: render recomputed %d cells not covered by PlanFigure", figure, computed)
		}
	}
}

// TestPerEventCellsMissBatchedCache renders Figure 7 batched and then
// per-event on one cache. The per-event cells must not be served from the
// batched entries: the figures match, but the per-event records must
// report no batched events, which a reused batched record does.
func TestPerEventCellsMissBatchedCache(t *testing.T) {
	o := cachedOpts(t)
	o.Only = []string{"List"}
	var buf bytes.Buffer
	Figure7(&buf, o) // batched: populates the cache

	var mu sync.Mutex
	hits, cells := 0, 0
	o.PerEvent = true
	o.Progress = func(p exp.Progress) {
		if p.Cached {
			hits++
		}
	}
	o.CellDone = func(c exp.Cell, res exp.CellResult) {
		mu.Lock()
		defer mu.Unlock()
		cells++
		if res.Sched.BatchedEvents != 0 {
			t.Errorf("%s: per-event cell reports %d batched events", c, res.Sched.BatchedEvents)
		}
	}
	Figure7(&buf, o)
	if hits != 0 {
		t.Errorf("per-event render served %d of %d cells from the batched run's cache entries", hits, cells)
	}
	if cells == 0 {
		t.Fatal("per-event render completed no cells")
	}
}
