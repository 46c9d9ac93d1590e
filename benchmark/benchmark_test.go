package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/harness"
)

// TestTracedDriverMatchesExecuteCell pins the traced driver to the cell
// layer: for one seed of every workload, each cell at threads <= 8 must
// produce exactly exp.ExecuteCell's counters, conductor counters
// included.
func TestTracedDriverMatchesExecuteCell(t *testing.T) {
	for _, w := range workloads {
		w.threads = min(w.threads, 8) // table2's single thread count
		fp, err := w.plan(1)
		if err != nil {
			t.Fatal(err)
		}
		var plan exp.Plan
		for _, c := range fp.Plan {
			if c.Threads <= 8 {
				plan = append(plan, c)
			}
		}
		if len(plan) == 0 {
			t.Fatalf("%s: no cells at threads <= 8", w.name)
		}
		fp.Plan = plan
		tr, err := traceRound(fp)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Spans) != spansPerCell*len(plan) {
			t.Errorf("%s: %d spans for %d cells, want %d per cell", w.name, len(tr.Spans), len(plan), spansPerCell)
		}
		covered := map[string]float64{}
		for _, s := range tr.Spans {
			if s.Parent != "" {
				covered[s.Cell] += s.Dur
			}
		}
		for _, s := range tr.Spans {
			if s.Parent == "" && covered[s.Cell] < 0.99*s.Dur {
				t.Errorf("%s: child spans cover %.1f of %.1f µs", s.Cell, covered[s.Cell], s.Dur)
			}
		}
		warm := exp.NewWarmState(fp.Config)
		want := make([]exp.CellResult, len(plan))
		for i, c := range plan {
			f, err := harness.WorkloadByName(c.Workload)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = exp.ExecuteCell(c, fp.Config, f, warm)
			if want[i].ValidateMsg != "" {
				t.Errorf("%s: %s", c, want[i].ValidateMsg)
			}
		}
		wantSHA, err := cellsDigest(plan, want)
		if err != nil {
			t.Fatal(err)
		}
		if tr.CellsSHA != wantSHA {
			t.Errorf("%s: traced driver cells_sha256 %s, exp.ExecuteCell %s", w.name, tr.CellsSHA, wantSHA)
		}
		var sw uint64
		for _, r := range want {
			sw += r.Sched.CoroutineSwitches
		}
		if tr.Sched.CoroutineSwitches != sw {
			t.Errorf("%s: traced driver %d coroutine switches, exp.ExecuteCell %d", w.name, tr.Sched.CoroutineSwitches, sw)
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks that every metric the benchmark
// prints is declared in BENCHMARK.json with the same unit, and that every
// declared metric is printed.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	costs := eventCosts{CommitNs: map[string]float64{}}
	for _, l := range engineLayers {
		costs.CommitNs[l] = 1
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, set := range []struct {
		kind     string
		declared []struct{ Name, Unit string }
		printed  map[string]metric
	}{
		{"end_to_end", spec.EndToEnd, endToEndMetrics(nil)},
		{"per_layer", spec.PerLayer, layerMetrics(nil, costs)},
	} {
		declared := map[string]string{}
		for _, m := range set.declared {
			declared[m.Name] = m.Unit
		}
		for n, m := range set.printed {
			if !name.MatchString(n) {
				t.Errorf("%s metric %q: name outside [A-Za-z0-9_.-]", set.kind, n)
			}
			if unit, ok := declared[n]; !ok {
				t.Errorf("%s metric %q is printed but not in BENCHMARK.json", set.kind, n)
			} else if unit != m.Unit {
				t.Errorf("%s metric %q: unit %q, BENCHMARK.json says %q", set.kind, n, m.Unit, unit)
			}
		}
		for n := range declared {
			if _, ok := set.printed[n]; !ok {
				t.Errorf("%s metric %q is in BENCHMARK.json but never printed", set.kind, n)
			}
		}
	}
}

// TestBadInputsExitTwo checks the up-front validation: bad flags exit 2
// with a message naming every workload, before any round runs.
func TestBadInputsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch"},
		{},
		{"--workload", "micro", "--seed", "x1"},
		{"--workload", "micro", "--seed", "1.5"},
		{"--workload", "micro", "--seed", "99999999999999999999"},
		{"--workload", "micro", "--seconds", "0"},
		{"--workload", "micro", "--trace", "2"},
		{"--workload", "micro", "--json", "no/such/dir/out.json"},
		{"--workload", "micro", "--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed %q on stdout", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), workloadNames()) {
			t.Errorf("%q: message %q does not list the workloads", args, stderr.String())
		}
	}
}

// TestAnySeedIsAccepted checks that every 64-bit seed, signed or not, maps
// to a base round unit in [0, maxSeed], and small seeds to themselves.
func TestAnySeedIsAccepted(t *testing.T) {
	for s, want := range map[string]uint64{
		"0":                    0,
		"1001":                 1001,
		"1000000000":           maxSeed,
		"1000000001":           0,
		"4294967295":           294967291,
		"18446744073709551615": 18446744073709551615 % (maxSeed + 1),
		"-1":                   18446744073709551615 % (maxSeed + 1),
		"-9223372036854775808": 9223372036854775808 % (maxSeed + 1),
	} {
		got, err := parseSeed(s)
		if err != nil || got != want {
			t.Errorf("parseSeed(%q) = %d, %v; want %d", s, got, err, want)
		}
	}
}

// TestCrashedChildFailsItsCells checks that a round whose child process
// dies is reported as failed cells, not as an error or a hang.
func TestCrashedChildFailsItsCells(t *testing.T) {
	rd, err := measureRound("false", workloads[0], 1, false, digestTable{})
	if err != nil {
		t.Fatal(err)
	}
	if rd.Digest != "crashed" || rd.Cells == 0 || rd.Failed != rd.Cells {
		t.Errorf("crashed child: digest %q, %d of %d cells failed", rd.Digest, rd.Failed, rd.Cells)
	}
}
