package cache

import (
	"math/bits"

	"repro/internal/mem"
)

// System is one simulated machine's memory system: the shared L3, one
// private Hierarchy per core (created on first use) and the presence
// filters that let a commit invalidate written lines in exactly the cores
// that may hold them. Every engine builds one and sees only Core, the two
// publishes, Stats and Release; the filters' bookkeeping lives here and in
// the Hierarchy's access paths.
//
// Each core's Hierarchy records its own presence when it fills a line
// (Access and AccessVersioned; a private hit is already recorded, see
// AccessPrivate), so a record is in place before the access returns its
// latency — before the engine charges it — and no commit can interleave
// between a fill and its record. A commit then drains the written line's
// records and invalidates only the recorded cores. Skipped cores would
// have seen a no-op invalidation (level.invalidate is pure on a miss), so
// the filtered publish is observably identical to a broadcast to every
// other core; TestPublishMatchesBroadcast pins that against unfiltered
// oracles.
type System struct {
	cfg    Config
	shared *Shared
	// cores holds each core's hierarchy, indexed by core ID; nil until
	// the core is first used. n counts the created entries.
	cores []*Hierarchy
	n     int
	// lines records which cores may hold a data line in L1/L2, xlines
	// which may hold a version-list line in their translation cache. The
	// translation cache is keyed at version-list-line granularity —
	// eight data lines share one entry — so it needs its own filter.
	lines, xlines presence
}

// NewSystem builds the memory system for cfg. Presence tables come from
// cfg.Scratch when it holds recycled ones; referenceStore backs them with
// the retained dense store instead (the engines' ReferenceStore option).
func NewSystem(cfg Config, referenceStore bool) *System {
	return &System{
		cfg:    cfg,
		shared: NewShared(cfg),
		lines:  newPresence(cfg.Scratch, referenceStore),
		xlines: newPresence(cfg.Scratch, referenceStore),
	}
}

// Core returns (creating on first use) the private hierarchy of core id.
func (s *System) Core(id int) *Hierarchy {
	for id >= len(s.cores) {
		s.cores = append(s.cores, nil)
	}
	h := s.cores[id]
	if h == nil {
		h = NewHierarchy(s.cfg, s.shared)
		h.sys, h.bit = s, coreBit(id)
		s.cores[id] = h
		s.n++
	}
	return h
}

// Publish invalidates line in every other core's private data caches
// (L1 and L2) after core self committed a write to it. It is the publish
// of engines that never make versioned accesses (2PL, SONTM): their
// translation caches and the MVM partition are never filled.
func (s *System) Publish(self int, line mem.Line) {
	for others := s.lines.drain(line, coreBit(self)); others != 0; others &= others - 1 {
		s.cores[bits.TrailingZeros64(others)].invalidateData(line)
	}
	s.untracked(self, line, false)
}

// PublishVersioned is SI-TM's commit publish (§4.4): line leaves every
// other core's private caches and cached translation, and its
// version-list line leaves the shared MVM partition. The partition holds
// one copy, so it is scanned once per line rather than once per core —
// but only when another core exists, as the per-core broadcast it
// replaces would: a solo committer never invalidated the partition, and
// partition residency is observable latency.
func (s *System) PublishVersioned(self int, line mem.Line) {
	bit := coreBit(self)
	for others := s.lines.drain(line, bit); others != 0; others &= others - 1 {
		s.cores[bits.TrailingZeros64(others)].invalidateData(line)
	}
	for others := s.xlines.drain(xlateLine(line), bit); others != 0; others &= others - 1 {
		s.cores[bits.TrailingZeros64(others)].invalidateXlate(line)
	}
	s.untracked(self, line, true)
	if s.n > 1 {
		s.shared.invalidateVersions(line)
	}
}

// untracked is the broadcast fallback for the cores the presence filters
// do not track (IDs 64 and up): each created one other than self drops
// line from its data caches and, for a versioned publish, its cached
// translation.
func (s *System) untracked(self int, line mem.Line, versioned bool) {
	for id := 64; id < len(s.cores); id++ {
		if h := s.cores[id]; h != nil && id != self {
			if versioned {
				h.invalidatePrivate(line)
			} else {
				h.invalidateData(line)
			}
		}
	}
}

// Stats returns the cache statistics summed over all cores.
func (s *System) Stats() Stats {
	var sum Stats
	for _, h := range s.cores {
		if h == nil {
			continue
		}
		sum.L1Hits += h.Stats.L1Hits
		sum.L2Hits += h.Stats.L2Hits
		sum.L3Hits += h.Stats.L3Hits
		sum.MemAccesses += h.Stats.MemAccesses
		sum.XlateHits += h.Stats.XlateHits
		sum.XlateMisses += h.Stats.XlateMisses
		sum.Accesses += h.Stats.Accesses
	}
	return sum
}

// Release returns every cache array and presence table to the configured
// scratch pool (no-op without one). The System must not be used
// afterwards.
func (s *System) Release() {
	for _, h := range s.cores {
		if h != nil {
			h.Release()
		}
	}
	s.cores = nil
	s.shared.Release()
	s.lines.release(s.cfg.Scratch)
	s.xlines.release(s.cfg.Scratch)
}

// presence is a conservative per-line record of which cores may hold a
// line in a private structure — a snoop filter with no false negatives.
// Bits go stale when a line is silently evicted; that costs one no-op
// invalidation later, never a missed one. drain clears the bits of the
// cores it returns, because after the caller invalidates them the line is
// absent there; a core that re-fills the line records it again.
//
// Only cores 0..63 are tracked, one bit each (coreBit); System.untracked
// broadcasts to the rest.
//
// The bit table is a paged store (mem.Paged): at serving-scale footprints
// the line-number space runs to 2²⁴ and beyond, and a dense table sized by
// the largest line ever noted would dwarf the touched set. Tables recycle
// through a Scratch; the per-cell reset walks only the dirty pages.
type presence struct {
	bits mem.Paged[uint64]
}

// newPresence returns a presence table, reusing a pristine recycled one
// from s when available (s may be nil). A reference table uses the
// retained dense backing and is never pooled.
func newPresence(s *Scratch, reference bool) presence {
	if reference {
		var p presence
		p.bits.SetReference()
		return p
	}
	if s != nil && len(s.presence) > 0 {
		p := s.presence[len(s.presence)-1]
		s.presence = s.presence[:len(s.presence)-1]
		return p
	}
	return presence{}
}

// release resets the table in O(dirty pages) and donates it to s. Safe
// with a nil Scratch (the table is left to the garbage collector).
func (p *presence) release(s *Scratch) {
	if s == nil || p.bits.Reference() {
		return
	}
	p.bits.Reset()
	s.presence = append(s.presence, *p)
	p.bits = mem.Paged[uint64]{}
}

// note records that the core with the given bit may now hold line.
func (p *presence) note(line mem.Line, bit uint64) {
	*p.bits.Slot(uint64(line)) |= bit
}

// drain returns the tracked cores other than self that may hold line and
// clears their bits; the caller must invalidate line in exactly those
// cores. The self bit stays: the committing core keeps the line. A drain
// that returns no cores writes nothing, so read-mostly lines never dirty
// their page.
func (p *presence) drain(line mem.Line, selfBit uint64) uint64 {
	v := p.bits.Load(uint64(line))
	others := v &^ selfBit
	if others != 0 {
		*p.bits.Slot(uint64(line)) = v & selfBit
	}
	return others
}

// coreBit returns the presence bit of core id: 1<<id for tracked cores,
// zero (never noted, never drained) from 64 on.
func coreBit(id int) uint64 {
	if id >= 64 {
		return 0
	}
	return uint64(1) << uint(id)
}
