package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysistest"
)

// TestYieldLint checks the yield-point soundness contract on a stand-in
// engine package: every simulated shared-memory access must be reachable
// only through functions that charge Tick/Stall, directly or via every
// intra-package caller; exported entry points must charge in their own
// body.
func TestYieldLint(t *testing.T) {
	analysistest.RunTest(t, analysistest.Testdata(), lint.YieldLint, "yield")
}

// TestYieldLintCoversSharedBase: a package that defines no engine but
// imports the scheduler (the eager base 2PL and SONTM embed) is inside
// the rule, and its exported helpers must charge in their own body.
func TestYieldLintCoversSharedBase(t *testing.T) {
	analysistest.RunTest(t, analysistest.Testdata(), lint.YieldLint, "shared")
}

// TestYieldLintSkipsNonEnginePackages: a package without a tm.Engine
// implementation is outside the rule even if it calls storage methods
// (the mvm fixture itself, whose map walks are its own business).
func TestYieldLintSkipsNonEnginePackages(t *testing.T) {
	analysistest.RunTest(t, analysistest.Testdata(), lint.YieldLint, "mvm")
}
