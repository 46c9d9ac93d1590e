package mc

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	_ "repro/internal/core"
	_ "repro/internal/sontm"
	"repro/internal/tm"
	_ "repro/internal/twopl"
)

// exhaustivePrograms are the 2-thread litmus tests whose whole schedule
// space is enumerable in well under 10^5 schedules per engine.
func exhaustivePrograms(t *testing.T) []Program {
	t.Helper()
	var out []Program
	for _, name := range []string{"write-skew", "lost-update", "read-skew", "bank"} {
		p, err := ProgramByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// TestEngineMatrix is the tentpole acceptance check: exhaustively model-
// check every exhaustive litmus program on every registered engine and
// require a clean verdict for the engine's behaviourally derived family —
// SI engines admit exactly the program's expected anomalies and are
// opaque; serializable engines admit no committed-transaction anomaly
// (zombie reads of aborted eager-2PL attempts are tolerated and surfaced
// in the fingerprint, never hidden).
//
// Each (program, engine) pair's history set and exploration statistics
// are also pinned against historyDigestsPath, so a change that only
// claims to speed an engine up must leave its whole schedule space
// untouched, not just its verdict.
func TestEngineMatrix(t *testing.T) {
	progs := exhaustivePrograms(t)
	golden := loadHistoryDigests(t)
	var mu sync.Mutex
	got := make(map[string]historyDigest)
	t.Cleanup(func() {
		if *update && !t.Failed() {
			writeHistoryDigests(t, got)
		}
	})
	for _, engine := range tm.Engines() {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			t.Parallel()
			fam, err := EngineFamily(engine, tm.EngineOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, prog := range progs {
				r, err := RunLitmus(prog, engine, tm.EngineOptions{}, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !r.Explored.Exhausted {
					t.Fatalf("%s: exploration not exhausted after %d schedules",
						prog.Name, r.Explored.Schedules)
				}
				key := prog.Name + "/" + engine
				d := digestOf(r)
				mu.Lock()
				got[key] = d
				mu.Unlock()
				if want, ok := golden[key]; !*update && (!ok || want != d) {
					t.Errorf("%s: history digest %+v, golden %+v (rerun with -update if the change is deliberate)",
						key, d, want)
				}
				if v := r.Violations(fam); len(v) != 0 {
					t.Errorf("%s (%s): violations:\n  %s",
						prog.Name, fam, strings.Join(v, "\n  "))
				}
				got := r.Admitted
				switch fam {
				case FamilySI:
					if got.ZombieRead {
						t.Errorf("%s: SI engine admitted a zombie read", prog.Name)
					}
					got.ZombieRead = false
					if got != prog.SIAdmits {
						t.Errorf("%s: admitted %s, SI expectation %s",
							prog.Name, got, prog.SIAdmits)
					}
				case FamilySerializable:
					got.ZombieRead = false
					if got.Any() {
						t.Errorf("%s: serializable engine admitted %s",
							prog.Name, r.Admitted)
					}
				}
			}
		})
	}
}

// update regenerates historyDigestsPath instead of checking it:
// go test ./internal/mc -run EngineMatrix -update.
var update = flag.Bool("update", false, "rewrite "+historyDigestsPath+" from the current explorations")

// historyDigestsPath holds one historyDigest per (program, engine) pair
// of TestEngineMatrix. Its diff is the record of every deliberate change
// to an engine's schedule space.
const historyDigestsPath = "testdata/history_digests.json"

// historyDigest fingerprints one exhaustive exploration: the SHA-256 of
// its sorted distinct history keys, their number, and the explorer's
// statistics.
type historyDigest struct {
	HistorySHA256 string `json:"history_sha256"`
	Histories     int    `json:"histories"`
	Schedules     int    `json:"schedules"`
	Decisions     int64  `json:"decisions"`
	MaxDepth      int    `json:"max_depth"`
	Exhausted     bool   `json:"exhausted"`
}

func digestOf(r *Result) historyDigest {
	keys := r.HistoryKeys()
	return historyDigest{
		HistorySHA256: fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(keys, "\n")))),
		Histories:     len(keys),
		Schedules:     r.Explored.Schedules,
		Decisions:     r.Explored.Decisions,
		MaxDepth:      r.Explored.MaxDepth,
		Exhausted:     r.Explored.Exhausted,
	}
}

func loadHistoryDigests(t *testing.T) map[string]historyDigest {
	t.Helper()
	want := make(map[string]historyDigest)
	if *update {
		return want
	}
	data, err := os.ReadFile(historyDigestsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", historyDigestsPath, err)
	}
	return want
}

func writeHistoryDigests(t *testing.T, got map[string]historyDigest) {
	t.Helper()
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(historyDigestsPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestEngineFamilyKnown pins the behavioural classification of the four
// paper engines: only SI-TM runs under (plain) snapshot isolation; the
// 2PL and SONTM baselines and the serializability-certifying SSI-TM never
// admit write skew.
func TestEngineFamilyKnown(t *testing.T) {
	want := map[string]Family{
		"2PL":    FamilySerializable,
		"SI-TM":  FamilySI,
		"SONTM":  FamilySerializable,
		"SSI-TM": FamilySerializable,
	}
	for engine, wantFam := range want {
		fam, err := EngineFamily(engine, tm.EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if fam != wantFam {
			t.Errorf("EngineFamily(%s) = %s, want %s", engine, fam, wantFam)
		}
	}
}

// TestVariantHistorySets pins that the differential option variants — the
// map-based reference access sets and the pre-fast-path reference cache
// model — admit exactly the same history set as the default fast paths,
// schedule space and all. A divergence would mean the fast path changed
// simulated behaviour, not just wall time.
func TestVariantHistorySets(t *testing.T) {
	variants := []struct {
		name string
		opts tm.EngineOptions
	}{
		{"reference-sets", tm.EngineOptions{ReferenceSets: true}},
		{"reference-cache", tm.EngineOptions{ReferenceCache: true}},
	}
	progs := []string{"write-skew"}
	for _, engine := range tm.Engines() {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			t.Parallel()
			names := progs
			if engine == "2PL" {
				// Also cover the zombie-read-admitting cell.
				names = append([]string{"read-skew"}, progs...)
			}
			for _, name := range names {
				prog, err := ProgramByName(name)
				if err != nil {
					t.Fatal(err)
				}
				base, err := RunLitmus(prog, engine, tm.EngineOptions{}, Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range variants {
					r, err := RunLitmus(prog, engine, v.opts, Options{})
					if err != nil {
						t.Fatal(err)
					}
					if r.Explored != base.Explored {
						t.Errorf("%s/%s: explored %+v, default %+v",
							name, v.name, r.Explored, base.Explored)
					}
					if !reflect.DeepEqual(r.HistoryKeys(), base.HistoryKeys()) {
						t.Errorf("%s/%s: history set diverged from default", name, v.name)
					}
				}
			}
		})
	}
}

func TestBoundedExploration(t *testing.T) {
	prog, err := ProgramByName("bank")
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunLitmus(prog, "SI-TM", tm.EngineOptions{}, Options{MaxSchedules: 50})
	if err != nil {
		t.Fatal(err)
	}
	if r.Explored.Schedules != 50 || r.Explored.Exhausted {
		t.Fatalf("Explored = %+v, want exactly 50 schedules, not exhausted", r.Explored)
	}
}

func TestRunLitmusUnknownEngine(t *testing.T) {
	prog, err := ProgramByName("write-skew")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunLitmus(prog, "nope", tm.EngineOptions{}, Options{}); err == nil ||
		!strings.Contains(err.Error(), "registered:") {
		t.Fatalf("err = %v, want unknown-engine listing", err)
	}
}

func TestProgramByNameUnknown(t *testing.T) {
	_, err := ProgramByName("nope")
	if err == nil || !strings.Contains(err.Error(), "write-skew") {
		t.Fatalf("err = %v, want listing of valid programs", err)
	}
}

// TestCheckWriteValuesPanics pins the litmus value discipline: a
// committed write colliding with the initial value would make value-
// resolved reads-from ambiguous, so it must be rejected loudly.
func TestCheckWriteValuesPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic on duplicate write value")
		}
		if !strings.Contains(r.(string), "duplicate value") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	prog, err := ProgramByName("write-skew")
	if err != nil {
		t.Fatal(err)
	}
	checkWriteValues(prog, parseHist(t, "b0 w0v0=1 c0")) // init x is also 1
}
