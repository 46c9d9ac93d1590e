// Command benchmark measures what users of this reproduction wait for: the
// host time to a correct figure. It runs one named sweep workload through
// the real figure path (harness.RenderFigureText → exp.CellRunner →
// exp.ExecuteCell, one worker) in rounds, each round a child process of
// its own, one at a time, until --seconds have passed. Every round is
// checked: each cell's Validate, and the rendered figure and per-cell
// counters against golden digests. With --trace 1 each round also runs
// the plan through a traced driver that times the calls into each layer,
// and the run reports per-layer metrics and writes a Chrome trace.
//
// Run it from the repository root (README.md):
//
//	sh benchmark/run.sh --workload micro --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result as one JSON object.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// maxSeed bounds the base round unit so that round units and their seed
// blocks never overflow; larger or negative --seed values are folded into
// [0, maxSeed] (parseSeed).
const maxSeed = 1_000_000_000

// childTimeout bounds one round; a round normally takes a few seconds, so
// a child past this is hung and is killed and counted as failed.
const childTimeout = 90 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type config struct {
	workload workload
	seed     uint64
	seconds  int
	trace    bool
	jsonPath string
	traceOut string
	update   bool
	round    int64 // >= 0: run this round unit as a child process
}

func parseArgs(args []string) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	name := fs.String("workload", "", "workload to run")
	seed := fs.String("seed", "1", "base seed: round r runs unit seed+r")
	fs.IntVar(&cfg.seconds, "seconds", 30, "measure for this many seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&cfg.jsonPath, "json", "", "also write the full report to this file")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "Chrome trace file of a traced run")
	fs.BoolVar(&cfg.update, "update", false, "regenerate "+digestsPath)
	fs.Int64Var(&cfg.round, "round", -1, "internal: run one round as a child process")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if cfg.update {
		return cfg, nil
	}
	var err error
	if cfg.workload, err = workloadByName(*name); err != nil {
		return cfg, err
	}
	if cfg.seed, err = parseSeed(*seed); err != nil {
		return cfg, err
	}
	if cfg.seconds < 1 || cfg.seconds > 3600 {
		return cfg, fmt.Errorf("--seconds %d out of range [1, 3600]", cfg.seconds)
	}
	if *trace != 0 && *trace != 1 {
		return cfg, fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	cfg.trace = *trace == 1
	if cfg.trace && cfg.traceOut == "" && cfg.round < 0 {
		cfg.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", cfg.workload.name, cfg.seed))
		if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
			return cfg, err
		}
	}
	for _, p := range []string{cfg.jsonPath, cfg.traceOut} {
		if p == "" {
			continue
		}
		if st, err := os.Stat(filepath.Dir(p)); err != nil || !st.IsDir() {
			return cfg, fmt.Errorf("directory of %q does not exist", p)
		}
	}
	return cfg, nil
}

// parseSeed reads --seed, any decimal integer of 64 bits, signed or not,
// and returns the base round unit: the seed itself when it is in
// [0, maxSeed], else its two's-complement value modulo maxSeed+1. The same
// seed always gives the same rounds.
func parseSeed(s string) (uint64, error) {
	u, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		var v int64
		if v, err = strconv.ParseInt(s, 10, 64); err != nil {
			return 0, fmt.Errorf("malformed --seed %q: want a 64-bit integer", s)
		}
		u = uint64(v)
	}
	return u % (maxSeed + 1), nil
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseArgs(args)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\nusage: benchmark --workload {%s} --seed N --seconds N --trace 0|1 [--json FILE] [--trace-out FILE] | --update\n",
			err, workloadNames())
		return 2
	}
	if cfg.round >= 0 {
		res, err := runRound(cfg.workload, uint64(cfg.round), cfg.trace)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: round %d: %v\n", cfg.round, err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if cfg.update {
		if err := updateDigests(self, stderr); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}
	rep, err := measure(self, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Result.Correct {
		return 1
	}
	return 0
}

// round is the parent's record of one round.
type round struct {
	Unit   uint64 `json:"unit"`
	Cells  int    `json:"cells"`
	Failed int    `json:"failed"`
	// Digest is "ok", "unchecked", "mismatch" or "crashed".
	Digest string       `json:"digest"`
	RSSMB  float64      `json:"peak_rss_mb"`
	Error  string       `json:"error,omitempty"`
	Result *roundResult `json:"result,omitempty"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runReport is the --json file: the result plus every round.
type runReport struct {
	Workload   string      `json:"workload"`
	Figure     string      `json:"figure"`
	Only       []string    `json:"only,omitempty"`
	Seed       uint64      `json:"seed"`
	Seconds    int         `json:"seconds"`
	Trace      bool        `json:"trace"`
	GoVersion  string      `json:"go_version"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Costs      *eventCosts `json:"event_costs,omitempty"`
	Rounds     []round     `json:"rounds"`
	Result     result      `json:"result"`
}

// measure runs rounds one child at a time until the time budget is spent,
// then reports.
func measure(self string, cfg config, stdout io.Writer) (*runReport, error) {
	w := cfg.workload
	table, err := loadDigests()
	if err != nil {
		return nil, err
	}
	rep := &runReport{Workload: w.name, Figure: w.figure, Only: w.only, Seed: cfg.seed,
		Seconds: cfg.seconds, Trace: cfg.trace, GoVersion: runtime.Version(), GoMaxProcs: runtime.GOMAXPROCS(0)}
	// A round is started only while one more of average length still fits
	// the budget.
	budget := time.Duration(cfg.seconds) * time.Second
	start := time.Now()
	for u := cfg.seed; len(rep.Rounds) == 0 ||
		time.Since(start)+time.Since(start)/time.Duration(len(rep.Rounds)) <= budget; u++ {
		rd, err := measureRound(self, w, u, cfg.trace, table)
		if err != nil {
			return nil, err
		}
		rep.Rounds = append(rep.Rounds, rd)
		fmt.Fprintln(stdout, rd.summary(w.name))
	}

	res := &rep.Result
	for _, rd := range rep.Rounds {
		res.Attempted += rd.Cells
		res.Failed += rd.Failed
	}
	res.Correct = res.Failed == 0
	if cfg.trace {
		costs, err := measureCosts()
		if err != nil {
			return nil, err
		}
		rep.Costs = &costs
		res.Metrics = layerMetrics(rep.Rounds, costs)
		var traced []*tracedRound
		for _, rd := range rep.Rounds {
			if rd.Result != nil && rd.Result.Trace != nil {
				traced = append(traced, rd.Result.Trace)
			}
		}
		if err := writeChromeTrace(cfg.traceOut, traced); err != nil {
			return nil, err
		}
		for _, t := range traced {
			t.Spans = nil // in the trace file; too bulky for the report
		}
	} else {
		res.Metrics = endToEndMetrics(rep.Rounds)
	}
	if cfg.jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(cfg.jsonPath, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// measureRound runs round unit u in a child process and checks it. A
// child that crashes, hangs or reports a digest mismatch fails all of the
// round's cells.
func measureRound(self string, w workload, u uint64, traced bool, table digestTable) (round, error) {
	fp, err := w.plan(u)
	if err != nil {
		return round{}, err
	}
	rd := round{Unit: u, Cells: len(fp.Plan)}
	res, rss, err := runChild(self, w, u, traced)
	rd.RSSMB = rss
	if err != nil {
		rd.Digest, rd.Error, rd.Failed = "crashed", err.Error(), rd.Cells
		return rd, nil
	}
	rd.Result = res
	rd.Digest = table.check(w.name, u, digest{Figure: res.FigureSHA, Cells: res.CellsSHA})
	if res.Trace != nil && res.Trace.CellsSHA != res.CellsSHA {
		rd.Digest = "mismatch"
	}
	rd.Failed = len(res.Invalid)
	if rd.Digest == "mismatch" {
		rd.Failed = rd.Cells
	}
	return rd, nil
}

// summary is the human-readable line printed after each round.
func (rd round) summary(workload string) string {
	if rd.Result == nil {
		return fmt.Sprintf("round %s unit=%d cells=%d failed=%d digest=%s error=%q",
			workload, rd.Unit, rd.Cells, rd.Failed, rd.Digest, rd.Error)
	}
	r := rd.Result
	return fmt.Sprintf("round %s unit=%d seeds=%v host_figure_s=%.4f figure_s=%.4f setup_s=%.4f sim_mcycles=%.3f cells=%d failed=%d peak_rss_mb=%.1f calib_s=%.4f figure_sha256=%s digest=%s",
		workload, rd.Unit, r.Seeds, r.SweepS, r.SweepS*r.scale(), r.SetupS*r.scale(), float64(r.SimCycles)/1e6,
		rd.Cells, rd.Failed, rd.RSSMB, r.CalibS, r.FigureSHA, rd.Digest)
}

// runChild runs round unit u of w in a child process of this binary and
// returns its report and peak resident set in MB.
func runChild(self string, w workload, u uint64, traced bool) (*roundResult, float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self, "--workload", w.name, "--round", strconv.FormatUint(u, 10), "--trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var rss float64
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return nil, rss, fmt.Errorf("%s unit %d: killed after %v", w.name, u, childTimeout)
	}
	if err != nil {
		return nil, rss, fmt.Errorf("%s unit %d: %w", w.name, u, err)
	}
	var res roundResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, rss, fmt.Errorf("%s unit %d: bad child report: %w", w.name, u, err)
	}
	return &res, rss, nil
}
