package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/exp"
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

// update regenerates the golden section digests in testdata/ instead of
// checking them: go test ./internal/harness -run WarmVsCold -update.
var update = flag.Bool("update", false, "rewrite "+digestsPath+" from the current renders")

// digestsPath holds the SHA-256 of every section's canonical bytes under
// TestFiguresAreByteIdenticalWarmVsCold's options. A change that moves a
// figure fails here until the digests are regenerated with -update, so
// the diff of this file is the record of every deliberate figure change.
const digestsPath = "testdata/digests.json"

// TestFiguresAreByteIdenticalWarmVsCold is the house differential test
// applied to the cache: every figure rendered from cached cell results
// must be byte-for-byte the figure rendered from live simulation. The
// cold bytes are also checked against the golden digests.
func TestFiguresAreByteIdenticalWarmVsCold(t *testing.T) {
	o := cachedOpts(t)
	// One serving-tier workload, so figure-oltp renders a table, not
	// just its header; the paper figures ignore it.
	o.Only = append(o.Only, "kv@0.50")
	want := make(map[string]string)
	if !*update {
		data, err := os.ReadFile(digestsPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("%s: %v", digestsPath, err)
		}
	}
	got := make(map[string]string)
	for _, figure := range FigureNames {
		cold, err := RenderFigureText(figure, 4, o)
		if err != nil {
			t.Fatal(err)
		}
		got[figure] = fmt.Sprintf("%x", sha256.Sum256(cold))
		if !*update && got[figure] != want[figure] {
			t.Errorf("%s: digest %s, golden %s (rerun with -update if the change is deliberate):\n%s",
				figure, got[figure], want[figure], cold)
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
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
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
