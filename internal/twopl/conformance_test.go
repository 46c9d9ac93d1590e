package twopl_test

import (
	"testing"

	"repro/internal/tm"
	"repro/internal/tmtest"
	"repro/internal/twopl"
)

func TestConformance2PL(t *testing.T) {
	tmtest.RunConformance(t, func() tm.Engine {
		return twopl.New(twopl.DefaultConfig())
	})
}

func TestSerializableSemantics2PL(t *testing.T) {
	tmtest.RunSerializableSuite(t, func() tm.Engine {
		return twopl.New(twopl.DefaultConfig())
	})
}

// TestTxnHotPathsAllocFree runs 2PL's leaves of tmtest's hot-path table:
// 0 allocations per transaction.
func TestTxnHotPathsAllocFree(t *testing.T) {
	tmtest.RunTxnHotPathsAllocFree(t, "2PL")
}

// TestSlackFollowsWriteSet: 2PL publishes L1Latency + BroadcastCost from
// Begin while its write set is empty, zero from the first write through
// commit entry, and honours promises with the same charge per read.
func TestSlackFollowsWriteSet(t *testing.T) {
	cfg := twopl.DefaultConfig()
	read := cfg.Cache.L1Latency + cfg.BroadcastCost
	tmtest.RunSlackFollowsWriteSet(t,
		tmtest.SlackCase{Name: "2PL", Engine: "2PL", Read: read, Charge: read, HonoursPromises: true},
		tmtest.SlackCase{Name: "2PL traced", Engine: "2PL", Traced: true, Read: read, Charge: read},
	)
}
