package tmtest_test

import (
	"testing"

	"repro/internal/tmtest"
)

// The hot-path benchmarks of every engine, one <engine>/<regime>
// sub-benchmark per leaf of tmtest's table. Each engine package's
// TestTxnHotPathsAllocFree pins the same leaves at 0 allocations per
// transaction.
func BenchmarkTxnRead(b *testing.B)  { tmtest.BenchHotPaths(b, "TxnRead") }
func BenchmarkTxnWrite(b *testing.B) { tmtest.BenchHotPaths(b, "TxnWrite") }
func BenchmarkCommit(b *testing.B)   { tmtest.BenchHotPaths(b, "Commit") }
