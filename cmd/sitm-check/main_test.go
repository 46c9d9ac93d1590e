package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBadMaxSchedulesExitsTwo runs the command itself (this test binary
// re-executed as main) and checks that a negative schedule bound is
// rejected before any exploration starts: exit status 2 and a one-line
// message, not a silently unbounded search. Zero stays the explicit
// "no bound".
func TestBadMaxSchedulesExitsTwo(t *testing.T) {
	for _, n := range []string{"-1", "-5"} {
		checkExitsTwo(t, "-max-schedules", n)
	}
}

// checkExitsTwo re-executes the test binary as sitm-check with flag set to
// value and requires exit status 2, a one-line message naming the flag
// and value, and no output.
func checkExitsTwo(t *testing.T, flag, value string) {
	t.Helper()
	if args := os.Getenv("SITM_CHECK_TEST_ARGS"); args != "" {
		os.Args = append([]string{"sitm-check"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$")
	cmd.Env = append(os.Environ(), "SITM_CHECK_TEST_ARGS="+flag+" "+value)
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
