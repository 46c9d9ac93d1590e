package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sched"
)

// TestBadThreadsExitsTwo runs the command itself (this test binary
// re-executed as main) and checks that a thread count the simulator
// cannot run is rejected before any sweep starts: exit status 2 and a
// one-line message, not a worker panic.
func TestBadThreadsExitsTwo(t *testing.T) {
	if args := os.Getenv("SITM_BENCH_TEST_ARGS"); args != "" {
		os.Args = append([]string{"sitm-bench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, n := range []string{"0", "-3", strconv.Itoa(sched.MaxThreads + 1)} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadThreadsExitsTwo$")
		cmd.Env = append(os.Environ(), "SITM_BENCH_TEST_ARGS=-table 2 -seeds 1 -threads "+n)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-threads %s: got %v, want exit status 2; stderr:\n%s", n, err, stderr.String())
		}
		msg := stderr.String()
		if strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "-threads "+n) {
			t.Fatalf("-threads %s: want a one-line message naming the flag, got:\n%s", n, msg)
		}
		if stdout.Len() != 0 {
			t.Fatalf("-threads %s: wrote output before rejecting the flag:\n%s", n, stdout.String())
		}
	}
}
