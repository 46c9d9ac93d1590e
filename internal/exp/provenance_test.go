package exp

import (
	"go/build"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lint"
)

// writeTree lays out a synthetic module checkout: go.mod plus one .go
// file per fingerprinted directory.
func writeTree(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module synthetic\n")
	for _, dir := range simSourceDirs {
		write(dir+"/pkg.go", "package p // "+dir+"\n")
	}
	for _, dirs := range engineSourceDirs {
		for _, dir := range dirs {
			write(dir+"/engine.go", "package p // "+dir+"\n")
		}
	}
	write("internal/harness/harness.go", "package harness\n")
	return root
}

func edit(t *testing.T, root, rel, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(root, filepath.FromSlash(rel)), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// keysFor computes the cache keys of one cell per engine under p.
func keysFor(p Provenance) map[string]string {
	keys := make(map[string]string)
	for _, engine := range []string{"2PL", "SONTM", "SI-TM", "SSI-TM"} {
		c := Cell{Workload: "List", Engine: engine, Threads: 8, Seed: 1}
		keys[engine] = p.CellKey(c, CellConfig{})
	}
	return keys
}

func TestEngineEditInvalidatesOnlyThatEngine(t *testing.T) {
	root := writeTree(t)
	before := ProvenanceAt(root)
	if !before.CanCache() {
		t.Fatal("synthetic tree must be cacheable")
	}
	keysBefore := keysFor(before)

	// The acceptance criterion: editing one engine's sources changes the
	// keys of exactly that engine's cells.
	edit(t, root, "internal/twopl/engine.go", "package p // edited\n")
	after := ProvenanceAt(root)
	keysAfter := keysFor(after)

	if after.Sim != before.Sim {
		t.Fatal("engine edit must not change the shared sim fingerprint")
	}
	if keysAfter["2PL"] == keysBefore["2PL"] {
		t.Fatal("2PL keys must change after editing internal/twopl")
	}
	for _, engine := range []string{"SONTM", "SI-TM", "SSI-TM"} {
		if keysAfter[engine] != keysBefore[engine] {
			t.Fatalf("%s keys must survive a twopl edit", engine)
		}
	}
}

func TestCoreEditInvalidatesBothSIEngines(t *testing.T) {
	// SI-TM and SSI-TM share internal/core, so a core edit invalidates
	// both — and only both.
	root := writeTree(t)
	before := keysFor(ProvenanceAt(root))
	edit(t, root, "internal/core/engine.go", "package p // edited\n")
	after := keysFor(ProvenanceAt(root))
	for engine, want := range map[string]bool{"2PL": false, "SONTM": false, "SI-TM": true, "SSI-TM": true} {
		if changed := after[engine] != before[engine]; changed != want {
			t.Errorf("%s key changed=%v, want %v", engine, changed, want)
		}
	}
}

func TestSimEditInvalidatesEverything(t *testing.T) {
	root := writeTree(t)
	before := ProvenanceAt(root)
	edit(t, root, "internal/sched/pkg.go", "package p // edited\n")
	after := ProvenanceAt(root)
	if after.Sim == before.Sim {
		t.Fatal("sched edit must change the sim fingerprint")
	}
	kb, ka := keysFor(before), keysFor(after)
	for engine := range kb {
		if ka[engine] == kb[engine] {
			t.Errorf("%s key must change after a shared-sim edit", engine)
		}
	}
}

func TestRenderingEditKeepsCacheWarm(t *testing.T) {
	// The harness (figure rendering) is deliberately outside the
	// fingerprint: figure edits must not cold the cache.
	root := writeTree(t)
	before := keysFor(ProvenanceAt(root))
	edit(t, root, "internal/harness/harness.go", "package harness // edited\n")
	after := keysFor(ProvenanceAt(root))
	for engine := range before {
		if after[engine] != before[engine] {
			t.Errorf("%s key changed after a harness-only edit", engine)
		}
	}
}

func TestTestFileEditKeepsCacheWarm(t *testing.T) {
	root := writeTree(t)
	before := ProvenanceAt(root)
	path := filepath.Join(root, "internal/sched/pkg_test.go")
	if err := os.WriteFile(path, []byte("package p\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if after := ProvenanceAt(root); after.Sim != before.Sim {
		t.Fatal("_test.go files must not participate in fingerprints")
	}
}

func TestProvenanceUnavailableCannotCache(t *testing.T) {
	p := ProvenanceAt("")
	if p.CanCache() {
		t.Fatal("empty root must not be cacheable")
	}
	if !ProvenanceAt(writeTree(t)).CanCache() {
		t.Fatal("real tree must be cacheable")
	}
}

// TestCellKeySeparatesConfigs walks CellConfig by reflection, so a field
// added to the configuration is covered without editing the test: setting
// any one field gives a key distinct from the default's and from every
// other field's.
func TestCellKeySeparatesConfigs(t *testing.T) {
	p := ProvenanceAt(writeTree(t))
	c := Cell{Workload: "List", Engine: "SI-TM", Threads: 8, Seed: 1}
	base := p.CellKey(c, CellConfig{})
	seen := map[string]string{base: "default"}
	typ := reflect.TypeOf(CellConfig{})
	for i := 0; i < typ.NumField(); i++ {
		var cfg CellConfig
		f := reflect.ValueOf(&cfg).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(2) // Scale 1 is the default's
		default:
			t.Fatalf("CellConfig.%s: no non-zero value for kind %s", typ.Field(i).Name, f.Kind())
		}
		key := p.CellKey(c, cfg)
		if prev, ok := seen[key]; ok {
			t.Errorf("CellConfig.%s shares a key with %s", typ.Field(i).Name, prev)
		}
		seen[key] = typ.Field(i).Name
	}
	// Scale <= 1 normalises to the fast defaults.
	if p.CellKey(c, CellConfig{Scale: 1}) != base || p.CellKey(c, CellConfig{}) != base {
		t.Error("Scale 0 and 1 must share a key")
	}
	// Coordinates separate too.
	c2 := c
	c2.Seed = 2
	if p.CellKey(c2, CellConfig{}) == base {
		t.Error("seed must participate in the key")
	}
	// Case-insensitive coordinates share a key (the registry is
	// case-insensitive, so "list" and "List" name the same cell).
	lower := Cell{Workload: "list", Engine: "si-tm", Threads: 8, Seed: 1}
	if p.CellKey(lower, CellConfig{}) != base {
		t.Error("workload/engine case must not split the cache")
	}
}

func TestCurrentProvenanceFingerprintsThisCheckout(t *testing.T) {
	// Built from the real source tree (go test always is), provenance
	// must be strong enough to cache and stable across calls.
	p := CurrentProvenance()
	if !p.CanCache() {
		t.Fatal("test build must have usable provenance")
	}
	if p.Engines["2pl"] == "" || p.Engines["si-tm"] == "" {
		t.Fatalf("engine fingerprints missing: %+v", p.Engines)
	}
	if p.Engines["si-tm"] != p.Engines["ssi-tm"] {
		t.Fatal("SI-TM and SSI-TM share internal/core and must share a fingerprint")
	}
	if q := CurrentProvenance(); q.Sim != p.Sim {
		t.Fatal("CurrentProvenance must be stable within a process")
	}
}

func TestEagerEditInvalidatesAllEngines(t *testing.T) {
	// Every engine is built on internal/eager's shared base, so an eager
	// edit invalidates all four.
	root := writeTree(t)
	before := keysFor(ProvenanceAt(root))
	edit(t, root, "internal/eager/engine.go", "package p // edited\n")
	after := keysFor(ProvenanceAt(root))
	for engine, want := range map[string]bool{"2PL": true, "SONTM": true, "SI-TM": true, "SSI-TM": true} {
		if changed := after[engine] != before[engine]; changed != want {
			t.Errorf("%s key changed=%v, want %v", engine, changed, want)
		}
	}
}

// TestSimClosureIsFingerprintedAndLinted walks the repro/internal import
// closure of the engine and workload packages with go/build, offline:
// every package in it feeds simulated results, so it must be
// fingerprinted (simSourceDirs or engineSourceDirs) — or a cache would
// serve stale cells after an edit to it — and held to detlint
// (lint.SimPackagePaths).
func TestSimClosureIsFingerprintedAndLinted(t *testing.T) {
	root := moduleRoot()
	if root == "" {
		t.Skip("source tree unavailable")
	}
	fingerprinted := map[string]bool{}
	for _, dir := range simSourceDirs {
		fingerprinted[dir] = true
	}
	queue := []string{"internal/micro", "internal/stamp", "internal/oltp"}
	for _, dirs := range engineSourceDirs {
		for _, dir := range dirs {
			fingerprinted[dir] = true
			queue = append(queue, dir)
		}
	}
	seen := map[string]bool{}
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		if seen[dir] {
			continue
		}
		seen[dir] = true
		if !fingerprinted[dir] {
			t.Errorf("%s is in the simulation's import closure but in neither simSourceDirs nor engineSourceDirs", dir)
		}
		if !lint.SimPackagePaths["repro/"+dir] {
			t.Errorf("%s is in the simulation's import closure but missing from lint.SimPackagePaths", dir)
		}
		pkg, err := build.ImportDir(filepath.Join(root, filepath.FromSlash(dir)), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range pkg.Imports {
			if rel, ok := strings.CutPrefix(imp, "repro/"); ok && strings.HasPrefix(rel, "internal/") {
				queue = append(queue, rel)
			}
		}
	}
	if !seen["internal/eager"] || !seen["internal/sched"] {
		t.Fatalf("walk missed known dependencies: %v", seen)
	}
}
