// Package sweep is the service layer of the experiment stack: a
// long-running sweep server that accepts figure plans over HTTP/JSON,
// shards their cells across worker processes with work-stealing leases,
// streams per-cell progress, renders figures from a shared
// content-addressed result cache (internal/exp), and resumes interrupted
// sweeps from whatever the cache already holds.
//
// The layering it sits on is strict: cells (internal/exp) are
// deterministic, so a cell result is a pure function of its
// content-address — (workload, engine, threads, seed, configuration,
// source fingerprints) — which makes results location-independent: any
// worker process may compute any cell, the only shared state is the
// cache directory, and a server restart loses nothing that was already
// computed. Figures (internal/harness) are pure functions of cached cell
// results, so the server renders them byte-identical to a local
// sitm-bench run.
//
// This package is service code, not simulation code: wall clocks,
// goroutines and net/http are the point here, and sitm-lint's detlint
// deliberately exempts it (lint.ServicePackagePaths) while keeping the
// simulation packages locked down.
package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/sched"
)

// Spec is a submitted sweep plan: which figures to build, over which
// workloads, seeds and thread count, under which ablations. The zero
// value of each field means the evaluation default.
type Spec struct {
	// Figures names the sections to build (harness.FigureNames);
	// default {"figure7"}.
	Figures []string `json:"figures,omitempty"`
	// Threads is the thread count for the sections that take one
	// (figure1, table2, mvm); default 32.
	Threads int `json:"threads,omitempty"`
	// Seeds to average over; default {1, 2, 3}.
	Seeds []uint64 `json:"seeds,omitempty"`
	// Workloads restricts the sweep (case-insensitive); empty means
	// every workload of each figure.
	Workloads []string `json:"workloads,omitempty"`

	// Ablation knobs, mirroring sitm-bench flags.
	Word       bool `json:"word,omitempty"`
	DropOldest bool `json:"drop_oldest,omitempty"`
	NoBackoff  bool `json:"no_backoff,omitempty"`
	Scale      int  `json:"scale,omitempty"`
}

// withDefaults fills unset fields with the evaluation defaults.
func (s Spec) withDefaults() Spec {
	if len(s.Figures) == 0 {
		s.Figures = []string{"figure7"}
	}
	if s.Threads == 0 {
		s.Threads = 32
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []uint64{1, 2, 3}
	}
	return s
}

// validate rejects unknown figures and workloads up front, so a bad plan
// fails at submit time rather than inside a worker.
func (s Spec) validate() error {
	for _, f := range s.Figures {
		if !harness.KnownFigure(f) {
			return fmt.Errorf("sweep: unknown figure %q (valid: %s)", f, strings.Join(harness.FigureNames, ", "))
		}
	}
	for _, w := range s.Workloads {
		if _, err := harness.WorkloadByName(w); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	if s.Threads < 0 || s.Scale < 0 {
		return fmt.Errorf("sweep: negative threads or scale")
	}
	if s.Threads > sched.MaxThreads {
		return fmt.Errorf("sweep: threads %d exceeds the simulator's limit of %d", s.Threads, sched.MaxThreads)
	}
	if s.Scale > harness.MaxScale {
		return fmt.Errorf("sweep: scale %d exceeds the workloads' limit of %d", s.Scale, harness.MaxScale)
	}
	return nil
}

// options maps the spec onto harness options. The cache is attached by
// the server at render time.
func (s Spec) options() harness.Options {
	return harness.Options{
		Seeds: s.Seeds,
		Only:  s.Workloads,
		CellConfig: exp.CellConfig{
			WordGranularity: s.Word,
			DropOldest:      s.DropOldest,
			NoBackoff:       s.NoBackoff,
			Scale:           s.Scale,
		},
	}
}

// hash digests the normalized spec for use in plan IDs: its JSON, lower
// cased because every string in a spec is a case-insensitive name.
func (s Spec) hash() string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("sweep: encoding spec: %v", err))
	}
	return fmt.Sprintf("%x", sha256.Sum256(bytes.ToLower(b)))
}

// Status is the externally visible state of one submitted plan.
type Status struct {
	ID    string `json:"id"`
	State string `json:"state"` // "running", "done" or "failed"
	// Total counts the plan's unique cells; Done how many are finished.
	Total int `json:"total"`
	Done  int `json:"done"`
	// Hits counts cells served from the cache (or shared with an
	// earlier plan); Computed counts cells this plan caused to be
	// simulated; Failed counts cells abandoned after repeated errors.
	Hits     int  `json:"hits"`
	Computed int  `json:"computed"`
	Failed   int  `json:"failed,omitempty"`
	Spec     Spec `json:"spec"`
}

// Event is one line of a plan's progress stream (NDJSON): a completed
// cell, whether it was served from the cache, and the running totals.
type Event struct {
	Plan   string `json:"plan"`
	Cell   string `json:"cell,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	Failed bool   `json:"failed,omitempty"`
	Done   int    `json:"done"`
	Total  int    `json:"total"`
	State  string `json:"state"`
}

// leaseResponse hands one cell to a worker. Key is the cell's
// content-address under the server's provenance: a worker recomputes the
// key from its own sources and refuses the lease on mismatch, so a
// worker built from a different tree can never poison the cache.
type leaseResponse struct {
	Key    string         `json:"key"`
	Cell   exp.Cell       `json:"cell"`
	Config exp.CellConfig `json:"config"`
}

// leaseRequest identifies the polling worker.
type leaseRequest struct {
	Worker string `json:"worker"`
}

// completeRequest reports a leased cell finished (its result is already
// in the shared cache) or failed.
type completeRequest struct {
	Key    string `json:"key"`
	Worker string `json:"worker"`
	Cached bool   `json:"cached,omitempty"`
	Failed bool   `json:"failed,omitempty"`
	Error  string `json:"error,omitempty"`
}

// submitResponse acknowledges a submitted plan.
type submitResponse struct {
	Status
}
