package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysistest"
)

// TestEngineLint checks that direct engine struct literals are flagged in
// consumer code, while the defining package, register.go files,
// constructor calls and non-engine literals pass.
func TestEngineLint(t *testing.T) {
	analysistest.RunTest(t, analysistest.Testdata(), lint.EngineLint, "engineuse", "engines")
}

// TestEngineLintAccessSets checks the access-set rule: mem.Line-keyed
// maps are flagged inside engine-defining packages; thread-ID- and
// string-keyed maps pass.
func TestEngineLintAccessSets(t *testing.T) {
	analysistest.RunTest(t, analysistest.Testdata(), lint.EngineLint, "enginesets")
}
