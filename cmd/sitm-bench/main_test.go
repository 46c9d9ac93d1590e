package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/sched"
)

// TestBadThreadsExitsTwo runs the command itself (this test binary
// re-executed as main) and checks that a thread count the simulator
// cannot run is rejected before any sweep starts: exit status 2 and a
// one-line message, not a worker panic.
func TestBadThreadsExitsTwo(t *testing.T) {
	for _, n := range []string{"0", "-3", strconv.Itoa(sched.MaxThreads + 1)} {
		checkExitsTwo(t, "-threads", n)
	}
}

// TestBadScaleAndWorkersExitTwo checks the same for a -scale below 1, a
// -scale past harness.MaxScale and a negative -workers, which used to run
// at scale 1, panic in a worker and run one worker per CPU respectively.
func TestBadScaleAndWorkersExitTwo(t *testing.T) {
	for _, c := range [][2]string{
		{"-scale", "0"}, {"-scale", "-3"}, {"-scale", strconv.Itoa(harness.MaxScale + 1)},
		{"-scale", "100000000000"}, {"-workers", "-1"},
	} {
		checkExitsTwo(t, c[0], c[1])
	}
}

// checkExitsTwo re-executes the test binary as sitm-bench with flag set
// to value on a small table-2 run and requires exit status 2, a one-line
// message naming the flag and value, and no output.
func checkExitsTwo(t *testing.T, flag, value string) {
	t.Helper()
	if args := os.Getenv("SITM_BENCH_TEST_ARGS"); args != "" {
		os.Args = append([]string{"sitm-bench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$")
	cmd.Env = append(os.Environ(), "SITM_BENCH_TEST_ARGS=-table 2 -seeds 1 "+flag+" "+value)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("%s %s: got %v, want exit status 2; stderr:\n%s", flag, value, err, stderr.String())
	}
	msg := stderr.String()
	if strings.Count(msg, "\n") != 1 || !strings.Contains(msg, flag+" "+value) {
		t.Fatalf("%s %s: want a one-line message naming the flag, got:\n%s", flag, value, msg)
	}
	if stdout.Len() != 0 {
		t.Fatalf("%s %s: wrote output before rejecting the flag:\n%s", flag, value, stdout.String())
	}
}
