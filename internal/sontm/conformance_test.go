package sontm_test

import (
	"testing"

	"repro/internal/sontm"
	"repro/internal/tm"
	"repro/internal/tmtest"
)

func TestConformanceSONTM(t *testing.T) {
	tmtest.RunConformance(t, func() tm.Engine {
		return sontm.New(sontm.DefaultConfig())
	})
}

func TestSerializableSemanticsSONTM(t *testing.T) {
	tmtest.RunSerializableSuite(t, func() tm.Engine {
		return sontm.New(sontm.DefaultConfig())
	})
}

// TestTxnHotPathsAllocFree runs SONTM's leaves of tmtest's hot-path
// table: 0 allocations per transaction.
func TestTxnHotPathsAllocFree(t *testing.T) {
	tmtest.RunTxnHotPathsAllocFree(t, "SONTM")
}

// TestSlackFollowsWriteSet: SONTM publishes L1Latency from Begin while
// its write set is empty, zero from the first write through commit entry,
// and honours promises with the same charge per read.
func TestSlackFollowsWriteSet(t *testing.T) {
	read := sontm.DefaultConfig().Cache.L1Latency
	tmtest.RunSlackFollowsWriteSet(t,
		tmtest.SlackCase{Name: "SONTM", Engine: "SONTM", Read: read, Charge: read, HonoursPromises: true},
		tmtest.SlackCase{Name: "SONTM traced", Engine: "SONTM", Traced: true, Read: read, Charge: read},
	)
}
