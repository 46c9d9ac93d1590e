package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

// digestsPath is where --update writes the golden digests, relative to
// the repository root the benchmark runs from.
const digestsPath = "benchmark/testdata/digests.json"

//go:embed testdata/digests.json
var digestsJSON []byte

// digest pins one round's behaviour: the rendered figure bytes and the
// canonical per-cell counters (cellCounters).
type digest struct {
	Figure string `json:"figure_sha256"`
	Cells  string `json:"cells_sha256"`
}

// digestTable maps workload name → round unit (decimal) → digest.
type digestTable map[string]map[string]digest

// digestUnits are the round units the golden file covers: the rounds of
// runs with base seeds 0 … ~30 and of the held-out base 1001.
func digestUnits() []uint64 {
	var us []uint64
	for u := uint64(0); u < 40; u++ {
		us = append(us, u)
	}
	for u := uint64(1001); u < 1013; u++ {
		us = append(us, u)
	}
	return us
}

func loadDigests() (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(digestsJSON, &t); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	return t, nil
}

// check compares a round against the golden file: "ok", "mismatch", or
// "unchecked" for a unit the file does not cover.
func (t digestTable) check(workload string, unit uint64, d digest) string {
	want, ok := t[workload][strconv.FormatUint(unit, 10)]
	switch {
	case !ok:
		return "unchecked"
	case want == d:
		return "ok"
	}
	return "mismatch"
}

// updateDigests recomputes every covered round, one child process at a
// time, and rewrites the golden file.
func updateDigests(self string, log io.Writer) error {
	t := digestTable{}
	for _, w := range workloads {
		t[w.name] = map[string]digest{}
		for _, u := range digestUnits() {
			res, _, err := runChild(self, w, u, false)
			if err != nil {
				return err
			}
			if len(res.Invalid) > 0 {
				return fmt.Errorf("%s unit %d: %s", w.name, u, res.Invalid[0])
			}
			t[w.name][strconv.FormatUint(u, 10)] = digest{Figure: res.FigureSHA, Cells: res.CellsSHA}
			fmt.Fprintf(log, "%s unit %d: figure %s cells %s\n", w.name, u, res.FigureSHA, res.CellsSHA)
		}
	}
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestsPath, append(data, '\n'), 0o644)
}
