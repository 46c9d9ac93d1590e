package cache

import "repro/internal/mem"

// This file retains the pre-fast-path memory-hierarchy model verbatim as
// the differential oracle for the way-predicted implementation in
// cache.go, mirroring sched.Run and its reference conductor: slowLevel and
// SlowHierarchy are the readable specification of the simulated
// architecture, and the property/engine/harness-level differential tests
// pin that the fast path charges identical latencies, produces identical
// stats and evicts identical lines for any access stream.
//
// The only deliberate deviations from the original implementation are
// that Stats.Accesses is counted (the field postdates the original) and
// that slow levels never pool their arrays (the oracle runs in tests and
// reference sweeps, where allocation cost is irrelevant).

// slowLevel is one set-associative cache with LRU replacement. Power-of-
// two set counts index with a mask; other sizes (e.g. the 24 MiB data
// region left after carving the MVM partition out of the L3) fall back to
// modulo.
type slowLevel struct {
	sets    int
	ways    int
	tags    []mem.Line // sets*ways entries; 0 means empty (line 0 unused)
	stamps  []uint64   // LRU timestamps, parallel to tags
	clock   uint64
	setMask uint64 // sets-1 when sets is a power of two, else 0
}

func newSlowLevel(sizeBytes, ways int) *slowLevel {
	sets := sizeBytes / mem.LineBytes / ways
	if sets <= 0 {
		panic("cache: set count must be positive")
	}
	l := &slowLevel{
		sets: sets, ways: ways,
		tags:   make([]mem.Line, sets*ways),
		stamps: make([]uint64, sets*ways),
	}
	if sets&(sets-1) == 0 {
		l.setMask = uint64(sets - 1)
	}
	return l
}

// setOf maps a line to its set index.
func (l *slowLevel) setOf(line mem.Line) int {
	if l.setMask != 0 {
		return int(uint64(line) & l.setMask)
	}
	return int(uint64(line) % uint64(l.sets))
}

// access looks up line; on miss it fills the line, evicting LRU.
// It reports whether the access hit.
func (l *slowLevel) access(line mem.Line) bool {
	l.clock++
	base := l.setOf(line) * l.ways
	// Subslice the set once so the way scan runs without per-element
	// bounds checks.
	tags := l.tags[base : base+l.ways]
	stamps := l.stamps[base : base+l.ways]
	victim, oldest := 0, ^uint64(0)
	for i, tag := range tags {
		if tag == line {
			stamps[i] = l.clock
			return true
		}
		if stamps[i] < oldest {
			oldest, victim = stamps[i], i
		}
	}
	tags[victim] = line
	stamps[victim] = l.clock
	return false
}

// invalidate removes line if present.
func (l *slowLevel) invalidate(line mem.Line) {
	base := l.setOf(line) * l.ways
	tags := l.tags[base : base+l.ways]
	stamps := l.stamps[base : base+l.ways]
	for i, tag := range tags {
		if tag == line {
			tags[i] = 0
			stamps[i] = 0
		}
	}
}

// SlowHierarchy is the reference implementation of Hierarchy: the private
// L1/L2 (+ translation cache) of one core wired to a shared L3, with a
// full way scan and LRU stamp update on every probe.
type SlowHierarchy struct {
	cfg   Config
	l1    *slowLevel
	l2    *slowLevel
	l3    *SlowShared
	xlate *slowLevel
	Stats Stats
}

// SlowShared is the reference implementation of Shared: the L3 cache
// split into a data region and the MVM partition.
type SlowShared struct {
	cfg Config
	l3  *slowLevel
	mvm *slowLevel
}

// NewSlowShared builds the reference shared L3 for cfg.
func NewSlowShared(cfg Config) *SlowShared {
	dataBytes := cfg.L3SizeBytes - cfg.MVMPartBytes
	if dataBytes <= 0 {
		dataBytes = cfg.L3SizeBytes
	}
	s := &SlowShared{cfg: cfg, l3: newSlowLevel(dataBytes, cfg.L3Ways)}
	if cfg.MVMPartBytes > 0 {
		s.mvm = newSlowLevel(cfg.MVMPartBytes, cfg.L3Ways)
	}
	return s
}

// NewSlowHierarchy builds one core's reference private hierarchy attached
// to shared.
func NewSlowHierarchy(cfg Config, shared *SlowShared) *SlowHierarchy {
	h := &SlowHierarchy{cfg: cfg, l1: newSlowLevel(cfg.L1SizeBytes, cfg.L1Ways), l2: newSlowLevel(cfg.L2SizeBytes, cfg.L2Ways), l3: shared}
	if cfg.XlateEntries > 0 {
		h.xlate = newSlowLevel(cfg.XlateEntries*mem.LineBytes, 4)
	}
	return h
}

// Access charges a plain (non-versioned) access to line and returns its
// latency in cycles.
func (h *SlowHierarchy) Access(line mem.Line) uint64 {
	h.Stats.Accesses++
	if h.l1.access(line) {
		h.Stats.L1Hits++
		return h.cfg.L1Latency
	}
	if h.l2.access(line) {
		h.Stats.L2Hits++
		return h.cfg.L2Latency
	}
	if h.l3.l3.access(line) {
		h.Stats.L3Hits++
		return h.cfg.L3Latency
	}
	h.Stats.MemAccesses++
	return h.cfg.MemLatency
}

// AccessVersioned charges a transactional access to a multiversioned
// line; see Hierarchy.AccessVersioned for the model.
func (h *SlowHierarchy) AccessVersioned(line mem.Line) uint64 {
	h.Stats.Accesses++
	if h.l1.access(line) {
		h.Stats.L1Hits++
		return h.cfg.L1Latency
	}
	if h.l2.access(line) {
		h.Stats.L2Hits++
		return h.cfg.L2Latency
	}
	// On an L2 miss the version-list entry must be consulted before
	// the data line: the translation cache hides the lookup entirely;
	// otherwise the entry is fetched from the L3's MVM partition, or
	// from memory when not resident there.
	var indirection uint64
	if h.xlate != nil && h.xlate.access(xlateLine(line)) {
		h.Stats.XlateHits++
	} else {
		h.Stats.XlateMisses++
		if h.l3.mvm != nil && h.l3.mvm.access(xlateLine(line)) {
			indirection = h.cfg.L3Latency
		} else if h.l3.mvm != nil {
			indirection = h.cfg.MemLatency
		} else {
			indirection = h.cfg.L3Latency
		}
	}
	if h.l3.l3.access(line) {
		h.Stats.L3Hits++
		return h.cfg.L3Latency + indirection
	}
	h.Stats.MemAccesses++
	return h.cfg.MemLatency + indirection
}

// Invalidate drops line from the private caches of this core, the cached
// translation and the partition-resident version-list line.
//
//sitm:allow(chargelint) invalidation is part of the committer's publish step; its cost is charged to the committing thread by the engine's commit Tick, not to the invalidated cores, which do no work.
func (h *SlowHierarchy) Invalidate(line mem.Line) {
	h.l1.invalidate(line)
	h.l2.invalidate(line)
	if h.xlate != nil {
		h.xlate.invalidate(xlateLine(line))
	}
	if h.l3.mvm != nil {
		h.l3.mvm.invalidate(xlateLine(line))
	}
}

// invalidateVersions drops the version-list line holding line's
// indirection entry from the shared MVM partition; the Reference-mode
// counterpart of Shared.invalidateVersions.
func (s *SlowShared) invalidateVersions(line mem.Line) {
	if s.mvm != nil {
		s.mvm.invalidate(xlateLine(line))
	}
}
