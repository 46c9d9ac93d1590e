package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/tm"
	"repro/internal/tmtest"
)

func TestConformanceSITM(t *testing.T) {
	tmtest.RunConformance(t, func() tm.Engine {
		return core.New(core.DefaultConfig())
	})
}

func TestSnapshotIsolationSemanticsSITM(t *testing.T) {
	tmtest.RunSnapshotIsolationSuite(t, func() tm.Engine {
		return core.New(core.DefaultConfig())
	})
}

func TestConformanceSSITM(t *testing.T) {
	tmtest.RunConformance(t, func() tm.Engine {
		cfg := core.DefaultConfig()
		cfg.Serializable = true
		return core.New(cfg)
	})
}

func TestSerializableSemanticsSSITM(t *testing.T) {
	tmtest.RunSerializableSuite(t, func() tm.Engine {
		cfg := core.DefaultConfig()
		cfg.Serializable = true
		return core.New(cfg)
	})
}

func TestConformanceSITMWordGranularity(t *testing.T) {
	tmtest.RunConformance(t, func() tm.Engine {
		cfg := core.DefaultConfig()
		cfg.WordGranularity = true
		return core.New(cfg)
	})
}

func TestConformanceSITMNoCoalescing(t *testing.T) {
	tmtest.RunConformance(t, func() tm.Engine {
		cfg := core.DefaultConfig()
		cfg.MVM.Coalesce = false
		return core.New(cfg)
	})
}

// TestTxnHotPathsAllocFree runs SI-TM's and SSI-TM's leaves of tmtest's
// hot-path table: 0 allocations per transaction.
func TestTxnHotPathsAllocFree(t *testing.T) {
	tmtest.RunTxnHotPathsAllocFree(t, "SI-TM", "SSI-TM")
}

// TestSlackFollowsWriteSet: SI-TM, whose writes stay private until
// commit, publishes CommitOverhead + L1Latency from Begin through its
// writes and honours promises with an L1Latency charge per read; a tracer
// and SSI-TM's shared reader tables turn promises off.
func TestSlackFollowsWriteSet(t *testing.T) {
	cfg := core.DefaultConfig()
	read, charge := cfg.CommitOverhead+cfg.Cache.L1Latency, cfg.Cache.L1Latency
	tmtest.RunSlackFollowsWriteSet(t,
		tmtest.SlackCase{Name: "SI-TM", Engine: "SI-TM", Read: read, Charge: charge, AfterWrite: read, HonoursPromises: true},
		tmtest.SlackCase{Name: "SI-TM traced", Engine: "SI-TM", Traced: true, Read: read, Charge: charge, AfterWrite: read},
		tmtest.SlackCase{Name: "SSI-TM", Engine: "SSI-TM", Read: read, Charge: charge, AfterWrite: read},
	)
}

func TestConformanceSITMBoundedWindow(t *testing.T) {
	tmtest.RunConformance(t, func() tm.Engine {
		cfg := core.DefaultConfig()
		cfg.MaxInflight = 2
		return core.New(cfg)
	})
}
