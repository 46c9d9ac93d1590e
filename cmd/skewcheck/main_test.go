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

// TestBadCountsExitTwo runs the command itself (this test binary
// re-executed as main) and checks that a thread count the simulator
// cannot run and a transaction count below one are rejected before any
// tracing starts: exit status 2 and a one-line message, not a scheduler
// panic or a silent empty run.
func TestBadCountsExitTwo(t *testing.T) {
	for _, c := range [][2]string{
		{"-threads", "0"}, {"-threads", "-3"}, {"-threads", strconv.Itoa(sched.MaxThreads + 1)},
		{"-txns", "0"}, {"-txns", "-1"},
	} {
		checkExitsTwo(t, c[0], c[1])
	}
}

// checkExitsTwo re-executes the test binary as skewcheck with flag set to
// value and requires exit status 2, a one-line message naming the flag
// and value, and no output.
func checkExitsTwo(t *testing.T, flag, value string) {
	t.Helper()
	if args := os.Getenv("SKEWCHECK_TEST_ARGS"); args != "" {
		os.Args = append([]string{"skewcheck"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$")
	cmd.Env = append(os.Environ(), "SKEWCHECK_TEST_ARGS="+flag+" "+value)
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
