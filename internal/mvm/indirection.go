package mvm

import (
	"math"

	"repro/internal/clock"
	"repro/internal/mem"
)

// This file implements the §3.3 capabilities of the indirection layer
// beyond multiversion concurrency control: checkpointing with rollback to
// a consistent state (speculation/resiliency) and measurement of the
// deduplication opportunity (HICAMP-style zero-line and duplicate-content
// sharing).

// Checkpoint pins the current committed state of the memory and returns a
// handle. While a checkpoint is held, garbage collection keeps every
// version the checkpoint can see, exactly as it would for a long-running
// transaction. Checkpoints make the snapshot mechanism usable for
// speculation and error recovery (§3.3).
type Checkpoint struct {
	m  *Memory
	ts clock.Timestamp
}

// Checkpoint captures the state as of the most recent timestamp. The
// caller must Release the checkpoint when done, or its versions are
// retained forever.
func (m *Memory) Checkpoint() *Checkpoint {
	ts := m.clk.Now()
	m.active.Register(ts) // pin like a long-running reader
	return &Checkpoint{m: m, ts: ts}
}

// Timestamp returns the snapshot point of the checkpoint.
func (c *Checkpoint) Timestamp() clock.Timestamp { return c.ts }

// ReadWord reads a word from the checkpointed state.
func (c *Checkpoint) ReadWord(a mem.Addr) uint64 {
	v, ok := c.m.ReadWord(a, c.ts)
	if !ok {
		// The checkpoint pins its versions, so a miss can only mean
		// the checkpoint was already released.
		panic("mvm: read from released checkpoint")
	}
	return v
}

// Release unpins the checkpoint without restoring it.
func (c *Checkpoint) Release() {
	if c.m == nil {
		return
	}
	c.m.active.Deregister(c.ts)
	c.m = nil
}

// Rollback restores the memory's visible state to the checkpoint by
// discarding every version newer than it, then releases the checkpoint.
// It must not be called while transactions are in flight — rollback is a
// recovery action, not a concurrency-control one ("allowing rollback to a
// consistent state in response to an error", §3.3).
func (c *Checkpoint) Rollback() {
	if c.m == nil {
		panic("mvm: rollback of released checkpoint")
	}
	if c.m.clk.InFlight() > 0 {
		panic("mvm: rollback with commits in flight")
	}
	c.m.lines.Scan(0, math.MaxUint64, func(_ uint64, run []*versionList) {
		for j, vl := range run {
			if vl == nil {
				continue
			}
			for len(vl.v) > 0 && vl.v[len(vl.v)-1].ts > c.ts {
				vl.v = vl.v[:len(vl.v)-1]
			}
			if len(vl.v) == 0 && !vl.truncated {
				run[j] = nil
				c.m.nLines--
			}
		}
	})
	c.Release()
}

// DedupStats measures the content-sharing opportunity of the indirection
// layer (§3.3): how many newest-version lines are all zero (the "zero
// cache line" common case) and how many are byte-identical duplicates of
// another line, i.e. could be mapped to one physical line.
type DedupStats struct {
	Lines      int // lines with at least one version
	ZeroLines  int // newest version is all zero
	DupLines   int // newest version equals some other line's newest
	UniqueData int // distinct newest-version contents
}

// SharablePct returns the percentage of lines whose physical storage the
// indirection layer could elide by sharing.
func (d DedupStats) SharablePct() float64 {
	if d.Lines == 0 {
		return 0
	}
	return 100 * float64(d.Lines-d.UniqueData) / float64(d.Lines)
}

// MeasureDedup scans the newest versions and reports the deduplication
// opportunity.
//
//sitm:allow(chargelint) offline measurement scan (§3.3 analysis), not on the simulated access path; no transaction pays for it.
func (m *Memory) MeasureDedup() DedupStats {
	var d DedupStats
	seen := make(map[[mem.WordsPerLine]uint64]int)
	m.lines.Scan(0, math.MaxUint64, func(_ uint64, run []*versionList) {
		for _, vl := range run {
			if vl == nil || len(vl.v) == 0 {
				continue
			}
			d.Lines++
			data := vl.v[len(vl.v)-1].data
			if data == ([mem.WordsPerLine]uint64{}) {
				d.ZeroLines++
			}
			seen[data]++
		}
	})
	d.UniqueData = len(seen)
	for _, n := range seen {
		if n > 1 {
			d.DupLines += n
		}
	}
	return d
}
