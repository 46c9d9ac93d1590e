package tmtest_test

import (
	"testing"

	"repro/internal/mc"
	"repro/internal/tm"
	"repro/internal/tmtest"

	// Engines under test self-register with the tm registry.
	_ "repro/internal/core"
	_ "repro/internal/sontm"
	_ "repro/internal/twopl"
)

// TestRegistrySweep runs the conformance suite against every engine the
// tm registry knows, by registered name rather than a hard-coded list:
// an engine added in a future PR is covered the moment it self-registers.
// The isolation suite is chosen by mc.EngineFamily, which explores every
// schedule of the write-skew litmus on the engine, so the sweep needs no
// per-engine knowledge at all.
func TestRegistrySweep(t *testing.T) {
	names := tm.Engines()
	if len(names) < 4 {
		t.Fatalf("registry lists %v; expected at least 2PL, SONTM, SI-TM and SSI-TM", names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			f := func() tm.Engine {
				e, err := tm.NewEngine(name, tm.EngineOptions{})
				if err != nil {
					t.Fatalf("constructing %s: %v", name, err)
				}
				return e
			}
			tmtest.RunConformance(t, f)
			fam, err := mc.EngineFamily(name, tm.EngineOptions{})
			if err != nil {
				t.Fatalf("EngineFamily(%s): %v", name, err)
			}
			t.Logf("%s explores as %s", name, fam)
			if fam == mc.FamilySI {
				tmtest.RunSnapshotIsolationSuite(t, f)
			} else {
				tmtest.RunSerializableSuite(t, f)
			}
		})
	}
}

// TestRegistrySweepOptions re-runs conformance under the engine options
// the evaluation sweeps (word granularity, unbounded versions) and on the
// reference store, again for every registered engine; engines ignore
// options that do not apply.
func TestRegistrySweepOptions(t *testing.T) {
	opts := map[string]tm.EngineOptions{
		"word-granularity":   {WordGranularity: true},
		"unbounded-versions": {UnboundedVersions: true},
		"reference-store":    {ReferenceStore: true},
	}
	for _, name := range tm.Engines() {
		for label, o := range opts {
			o := o
			t.Run(name+"/"+label, func(t *testing.T) {
				tmtest.RunConformance(t, func() tm.Engine {
					e, err := tm.NewEngine(name, o)
					if err != nil {
						t.Fatalf("constructing %s: %v", name, err)
					}
					return e
				})
			})
		}
	}
}
