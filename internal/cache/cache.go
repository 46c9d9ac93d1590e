// Package cache models the simulated memory hierarchy of Table 1 in the
// SI-TM paper: per-core private L1/L2 caches and a shared L3, each
// set-associative with LRU replacement, plus the MVM indirection penalty and
// the optional translation cache of §3.2/§4.1.
//
// The model charges latency per access; it does not model MESI states. On
// transaction commit, written lines are invalidated in other cores' private
// caches ("snapshots need to be invalidated during commit", §4.4), which is
// the part of coherency that matters for the paper's timing shape.
//
// Every probe used to pay for a full way scan plus an LRU stamp update,
// and that loop dominated sweep wall-time. The implementation here keeps
// the architecture of slow.go observably intact but replaces its per-way
// 64-bit LRU stamps with two small words per set: a recency order (4 bits
// per way, most recently used first) and a valid-way mask. The order's
// front way is the way prediction: a probe first compares that single
// tag, and a predicted hit touches one tag word and updates nothing — the
// front way is already the most recent. Only mispredictions fall back to
// the scan-and-fill path, which moves the way to the front and, on a
// miss, picks the oracle's victim from the two words (see accessScan).
// Equivalence with the reference implementation (slowLevel/SlowHierarchy
// in slow.go) is pinned by a property test over random
// access/invalidate/release streams, an engine-level sweep in
// internal/tmtest, and the harness-level
// TestFiguresByteIdenticalFastVsSlowCache.
//
// L1 and L2 are private to their core and hold already-resolved versions;
// the model is non-inclusive, so an access they serve never reaches the
// shared L3, the translation cache or the MVM partition. Other cores
// write a core's private state only through commit invalidations.
// Hierarchy.AccessPrivate exposes exactly those private L1/L2 hits, which
// SI-TM batches under the scheduler's horizon (DESIGN.md "Horizon
// batching").
package cache

import (
	"math/bits"

	"repro/internal/mem"
)

// Config mirrors Table 1 of the paper.
type Config struct {
	L1SizeBytes int // 32 KiB
	L1Ways      int // 4
	L1Latency   uint64

	L2SizeBytes int // 256 KiB
	L2Ways      int // 8
	L2Latency   uint64

	L3SizeBytes int // 32 MiB total
	L3Ways      int // 16
	L3Latency   uint64
	// MVMPartBytes of the L3 form the MVM partition that caches
	// version-list lines (Table 1: 8 MiB).
	MVMPartBytes int

	MemLatency uint64 // 100 cycles

	// XlateEntries is the size of the per-core translation cache that
	// holds recently used version-list lines (§3.2). A hit hides the
	// MVM indirection latency; 0 disables the cache.
	XlateEntries int

	// Scratch, when non-nil, recycles level backing arrays across
	// simulations (see Scratch). It affects only allocation, never
	// simulated behaviour. Not part of the simulated architecture.
	Scratch *Scratch

	// Reference, when true, routes every access through the verbatim
	// pre-way-prediction implementation (SlowHierarchy) instead of the
	// fast path. Observable behaviour is identical either way — that is
	// exactly what the differential tests pin — so this is a debugging
	// and verification switch, not a modelling choice.
	Reference bool
}

// DefaultConfig returns the simulated architecture of Table 1.
func DefaultConfig() Config {
	return Config{
		L1SizeBytes: 32 << 10, L1Ways: 4, L1Latency: 4,
		L2SizeBytes: 256 << 10, L2Ways: 8, L2Latency: 8,
		L3SizeBytes: 32 << 20, L3Ways: 16, L3Latency: 30,
		MVMPartBytes: 8 << 20,
		MemLatency:   100,
		XlateEntries: 64,
	}
}

// maxWays is the widest set the recency encoding holds: 16 ways of 4
// bits fill one order word (Table 1's L3 is 16-way).
const maxWays = 16

// nibbles has a 1 in every 4-bit field of a recency-order word.
const nibbles = 0x1111111111111111

// level is one set-associative cache with LRU replacement and way
// prediction. Besides the tags, each set keeps two words of replacement
// state:
//
//   - order, a recency list of the set's ways: 4 bits per way, most
//     recently used first. Its low nibble is the predicted way. A zero word
//     stands for the identity order (way 0 first), so a fresh or reset set
//     is all-zero and is filled in on its first scan.
//   - valid, a mask whose bit i is set while way i has been used since it
//     was last invalidated — exactly the ways whose oracle LRU stamp is
//     non-zero.
//
// The oracle evicts the way with the smallest stamp, lowest index first
// on ties. Stamps are distinct except the zeros of unused ways, so its
// victim is the lowest way not in valid, or, with every way valid, the
// least recently used one: the last entry of order. Every stamp write of
// the oracle is a move to the front of order, so among valid ways order
// always ranks by stamp.
//
// Power-of-two set counts index with a mask; other sizes (e.g. the 24 MiB
// data region left after carving the MVM partition out of the L3) divide
// by a precomputed reciprocal instead of paying a hardware divide per
// probe.
type level struct {
	sets    int
	ways    int
	tags    []mem.Line // sets*ways entries; 0 means empty (line 0 unused)
	order   []uint64   // per-set recency order, 0 = identity
	valid   []uint16   // per-set mask of ways in use
	ident   uint64     // identity order: nibble i holds way i
	full    uint16     // valid mask with every way set
	setMask uint64     // sets-1 when sets is a power of two, else 0
	// modMul is ceil(2^64/sets), the Lemire reciprocal used to compute
	// line % sets with two multiplies when sets is not a power of two
	// and the line fits in 32 bits (real lines always do; the oracle's
	// plain modulo remains the fallback for adversarial inputs).
	modMul uint64

	// Dirty-set tracking: reset (scratch reuse) restores pristine state
	// by clearing only the sets a scan ever touched, instead of
	// memclr-ing multi-megabyte tag arrays per simulation cell.
	dirtyBits []uint64 // one bit per set
	dirtySets []int32  // sets with their dirty bit set, any order
}

func newLevel(sizeBytes, ways int, s *Scratch) *level {
	if ways < 1 || ways > maxWays {
		panic("cache: ways must be between 1 and 16")
	}
	sets := sizeBytes / mem.LineBytes / ways
	if sets <= 0 {
		panic("cache: set count must be positive")
	}
	if l := s.acquire(sets, ways); l != nil {
		return l
	}
	l := &level{
		sets: sets, ways: ways,
		tags:      make([]mem.Line, sets*ways),
		order:     make([]uint64, sets),
		valid:     make([]uint16, sets),
		full:      uint16(1<<ways - 1),
		dirtyBits: make([]uint64, (sets+63)/64),
		dirtySets: make([]int32, 0, sets),
	}
	for i := 1; i < ways; i++ {
		l.ident |= uint64(i) << (4 * i)
	}
	if sets&(sets-1) == 0 {
		l.setMask = uint64(sets - 1)
	} else {
		l.modMul = ^uint64(0)/uint64(sets) + 1
	}
	return l
}

// setOf maps a line to its set index. It must agree with
// slowLevel.setOf on every input.
func (l *level) setOf(line mem.Line) int {
	if l.setMask != 0 {
		return int(uint64(line) & l.setMask)
	}
	n := uint64(line)
	if n>>32 == 0 {
		// Lemire's fastmod: for n, sets < 2^32 the high half of
		// (n*ceil(2^64/sets))*sets is exactly n % sets.
		hi, _ := bits.Mul64(l.modMul*n, uint64(l.sets))
		return int(hi)
	}
	return int(n % uint64(l.sets))
}

// predicted returns the index into tags of set's predicted (most recently
// used) way.
func (l *level) predicted(set int) int {
	return set*l.ways + int(l.order[set]&15)
}

// access looks up line; on miss it fills the line, evicting LRU.
// It reports whether the access hit.
//
// Fast path: if the set's predicted way holds the line, the probe is a
// single tag compare that updates nothing. That is observably identical
// to the oracle's hit-with-stamp-update because the predicted way already
// holds the maximal stamp of its set — every oracle stamp write is a move
// to the front of order — so a fresh stamp cannot change which way any
// future eviction picks. Empty sets never fast-hit: their tags are 0 and
// line 0 is unused.
// Line 0 must always take the scan: the oracle cannot distinguish "way
// holds line 0" from "way is empty", so access(0) hits the first empty
// way of its set and stamps it (xlateLine maps data lines 1..7 there) —
// a quirk the predicted path would otherwise resolve at the wrong way.
func (l *level) access(line mem.Line) bool {
	set := l.setOf(line)
	if line != 0 && l.tags[l.predicted(set)] == line {
		return true
	}
	return l.accessScan(line, set)
}

// accessScan is the misprediction path: the oracle's scan-and-fill loop
// over the set's two state words. A hit, including the line-0 quirk's hit
// on an empty way, marks the way valid and moves it to the front; a miss
// fills the oracle's victim (see level) and does the same.
func (l *level) accessScan(line mem.Line, set int) bool {
	base := set * l.ways
	// Subslice the set once so the way scan runs without per-element
	// bounds checks.
	tags := l.tags[base : base+l.ways]
	order, valid := l.order[set], l.valid[set]
	if order == 0 {
		order = l.ident
	}
	way, pos, hit := 0, 0, false
	for i, tag := range tags {
		if tag == line {
			way, hit = i, true
			break
		}
	}
	switch {
	case hit:
		pos = wayPos(order, way)
	case valid != l.full:
		way = bits.TrailingZeros16(^valid)
		pos = wayPos(order, way)
		tags[way] = line
	default:
		pos = l.ways - 1
		way = int(order >> (4 * pos) & 15)
		tags[way] = line
	}
	l.order[set] = toFront(order, pos, way)
	l.valid[set] = valid | 1<<way
	// A genuine hit implies the set was filled before and is already
	// dirty — except the line-0 quirk, where a "hit" on an empty way can
	// be a pristine set's first write.
	l.markDirty(set)
	return hit
}

// wayPos returns the position of way in the recency order: the index of
// the lowest nibble equal to way. A permutation holds each way once in
// its low nibbles; the unused high nibbles are 0 and lie above way 0's
// position. The zero-nibble test (x-1)&^x&8 has false positives only
// above a true zero nibble, so the lowest flagged nibble is exact.
func wayPos(order uint64, way int) int {
	x := order ^ uint64(way)*nibbles
	return bits.TrailingZeros64((x-nibbles)&^x&(nibbles<<3)) >> 2
}

// toFront moves way, found at position pos of order, to the front: the
// nibbles below pos shift up one place and those above stay.
func toFront(order uint64, pos, way int) uint64 {
	below := uint64(1)<<(4*pos) - 1
	return order&^(below<<4|15) | (order&below)<<4 | uint64(way)
}

// holds reports, mutating nothing, whether set holds line.
func (l *level) holds(line mem.Line, set int) bool {
	base := set * l.ways
	for _, tag := range l.tags[base : base+l.ways] {
		if tag == line {
			return true
		}
	}
	return false
}

// markDirty records that set is no longer in its pristine all-zero state,
// so reset (scratch reuse) knows to clear it. Fills and line-0 hits are
// the only transitions out of pristine; real hits and invalidations act
// on sets a fill already dirtied.
func (l *level) markDirty(set int) {
	w, b := set>>6, uint64(1)<<(set&63)
	if l.dirtyBits[w]&b == 0 {
		l.dirtyBits[w] |= b
		l.dirtySets = append(l.dirtySets, int32(set))
	}
}

// invalidate removes line if present: it clears the way's tag and valid
// bit, as the oracle zeroes tag and stamp, and leaves order alone. For
// line 0 that is every empty way of the set, the oracle's behaviour too.
// If the invalidated way was predicted, its tag is now 0, which can never
// fast-hit, so the next probe of that set takes the scan path and
// re-trains the prediction.
func (l *level) invalidate(line mem.Line) {
	set := l.setOf(line)
	base := set * l.ways
	tags := l.tags[base : base+l.ways]
	var drop uint16
	for i, tag := range tags {
		if tag == line {
			tags[i] = 0
			drop |= 1 << i
		}
	}
	if drop != 0 {
		l.valid[set] &^= drop
	}
}

// reset restores the pristine (fresh-allocation) state by clearing only
// the sets that were ever scanned.
func (l *level) reset() {
	for _, s := range l.dirtySets {
		base := int(s) * l.ways
		clear(l.tags[base : base+l.ways])
		l.order[s] = 0
		l.valid[s] = 0
	}
	clear(l.dirtyBits)
	l.dirtySets = l.dirtySets[:0]
}

// Stats counts hits per level for one core. Accesses is the total number
// of charged accesses (Access + AccessVersioned); exactly one of L1Hits,
// L2Hits, L3Hits, MemAccesses increments per access, so their sum must
// equal Accesses — internal/tmtest sweeps that invariant across engines.
type Stats struct {
	L1Hits, L2Hits, L3Hits, MemAccesses uint64
	XlateHits, XlateMisses              uint64
	Accesses                            uint64
}

// Hierarchy is the private L1/L2 (+ translation cache) of one core wired to
// a shared L3. It is used only under the deterministic scheduler, so the
// shared L3 needs no locking.
type Hierarchy struct {
	cfg   Config
	l1    *level
	l2    *level
	l3    *Shared
	xlate *level
	// ref, in Config.Reference mode, is the verbatim pre-fast-path
	// implementation every call delegates to; Stats mirrors its stats.
	ref   *SlowHierarchy
	Stats Stats
}

// Shared is the L3 cache shared by all cores. Per Table 1 it is split
// into a data region and an MVM partition that caches version-list lines
// ("both the version list as well as multiversioned data is stored in the
// MVM partition"; "version list entries can be cached in the L3", §3.2).
type Shared struct {
	cfg Config
	l3  *level
	mvm *level
	ref *SlowShared
}

// NewShared builds the shared L3 for cfg: the MVM partition is carved out
// of the configured L3 size.
func NewShared(cfg Config) *Shared {
	if cfg.Reference {
		return &Shared{cfg: cfg, ref: NewSlowShared(cfg)}
	}
	dataBytes := cfg.L3SizeBytes - cfg.MVMPartBytes
	if dataBytes <= 0 {
		dataBytes = cfg.L3SizeBytes
	}
	s := &Shared{cfg: cfg, l3: newLevel(dataBytes, cfg.L3Ways, cfg.Scratch)}
	if cfg.MVMPartBytes > 0 {
		s.mvm = newLevel(cfg.MVMPartBytes, cfg.L3Ways, cfg.Scratch)
	}
	return s
}

// NewHierarchy builds one core's private hierarchy attached to shared.
func NewHierarchy(cfg Config, shared *Shared) *Hierarchy {
	if shared.ref != nil {
		return &Hierarchy{cfg: cfg, l3: shared, ref: NewSlowHierarchy(cfg, shared.ref)}
	}
	h := &Hierarchy{cfg: cfg, l1: newLevel(cfg.L1SizeBytes, cfg.L1Ways, cfg.Scratch), l2: newLevel(cfg.L2SizeBytes, cfg.L2Ways, cfg.Scratch), l3: shared}
	if cfg.XlateEntries > 0 {
		h.xlate = newLevel(cfg.XlateEntries*mem.LineBytes, 4, cfg.Scratch)
	}
	return h
}

// Access charges a plain (non-versioned) access to line and returns its
// latency in cycles.
func (h *Hierarchy) Access(line mem.Line) uint64 {
	if h.ref != nil {
		lat := h.ref.Access(line)
		h.Stats = h.ref.Stats
		return lat
	}
	h.Stats.Accesses++
	// The L1 predicted-hit probe of (*level).access is open-coded here:
	// that method is beyond the compiler's inlining budget, and the L1
	// fast hit is the single most common outcome of the whole simulator.
	l1 := h.l1
	set := l1.setOf(line)
	if line != 0 && l1.tags[l1.predicted(set)] == line {
		h.Stats.L1Hits++
		return h.cfg.L1Latency
	}
	if l1.accessScan(line, set) {
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

// AccessVersioned charges a transactional access to a multiversioned line.
// If the access is served by a private cache the indirection layer is not
// involved (L1/L2 hold the already-resolved version, §3.2). On an L2 miss
// the version-list entry must be consulted before the data line: a
// translation-cache hit hides that lookup, otherwise the indirection adds
// one L3-latency round trip ("less costly than two full round trip times").
// The xlate/MVM-partition/L3 probes are fused into one pass: the
// version-list line is computed once and each probe is the single-compare
// fast path of its level.
func (h *Hierarchy) AccessVersioned(line mem.Line) uint64 {
	if h.ref != nil {
		lat := h.ref.AccessVersioned(line)
		h.Stats = h.ref.Stats
		return lat
	}
	h.Stats.Accesses++
	// Same open-coded L1 predicted-hit probe as Access.
	l1 := h.l1
	set := l1.setOf(line)
	if line != 0 && l1.tags[l1.predicted(set)] == line {
		h.Stats.L1Hits++
		return h.cfg.L1Latency
	}
	if l1.accessScan(line, set) {
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
	xl := xlateLine(line)
	var indirection uint64
	if h.xlate != nil && h.xlate.access(xl) {
		h.Stats.XlateHits++
	} else {
		h.Stats.XlateMisses++
		if h.l3.mvm == nil || h.l3.mvm.access(xl) {
			indirection = h.cfg.L3Latency
		} else {
			indirection = h.cfg.MemLatency
		}
	}
	if h.l3.l3.access(line) {
		h.Stats.L3Hits++
		return h.cfg.L3Latency + indirection
	}
	h.Stats.MemAccesses++
	return h.cfg.MemLatency + indirection
}

// AccessPrivate performs the access to line only if this core's private
// caches serve it. If L1 (any way) or L2 holds the line it does exactly
// what Access and AccessVersioned would — the two agree up to an L2 miss:
// an L1 hit refreshes L1's recency, an L2 hit fills L1 and refreshes L2,
// and Stats count the same — and returns that latency and true.
// Otherwise it mutates nothing and returns false, and the caller takes
// the full access.
//
// Engines use it to certify an access as non-interacting before batching
// it past the conductor's inline bound (sched.Thread.TickHinted): a
// private hit reads and writes only this core's L1/L2 and Stats, which
// no other core touches except through commit invalidations — audited
// effects that a published slack keeps beyond the horizon. The model is
// non-inclusive, so an L2 hit never reaches the L3, the translation cache
// or the MVM partition.
//
// In Reference mode, and for line 0 (whose oracle lookup "hits" empty
// ways), it always returns false.
func (h *Hierarchy) AccessPrivate(line mem.Line) (uint64, bool) {
	if h.ref != nil || line == 0 {
		return 0, false
	}
	l1 := h.l1
	set := l1.setOf(line)
	switch {
	case l1.tags[l1.predicted(set)] == line:
		// Way-predicted hit: nothing to update (see level.access).
	case l1.holds(line, set):
		l1.accessScan(line, set) // hits and moves to the front
	case h.l2.holds(line, h.l2.setOf(line)):
		l1.accessScan(line, set) // misses and fills
		h.l2.access(line)
		h.Stats.Accesses++
		h.Stats.L2Hits++
		return h.cfg.L2Latency, true
	default:
		return 0, false
	}
	h.Stats.Accesses++
	h.Stats.L1Hits++
	return h.cfg.L1Latency, true
}

// Invalidate drops line from the private caches of this core, the cached
// translation and the partition-resident version-list line — the full
// per-core invalidation of §4.4. Engines that split the work (see
// InvalidatePrivate/InvalidateVersions) must preserve exactly this
// composition.
//
//sitm:allow(chargelint) invalidation is part of the committer's publish step; its cost is charged to the committing thread by the engine's commit Tick, not to the invalidated cores, which do no work.
func (h *Hierarchy) Invalidate(line mem.Line) {
	if h.ref != nil {
		h.ref.Invalidate(line)
		return
	}
	h.l1.invalidate(line)
	h.l2.invalidate(line)
	if h.xlate != nil {
		h.xlate.invalidate(xlateLine(line))
	}
	if h.l3.mvm != nil {
		h.l3.mvm.invalidate(xlateLine(line))
	}
}

// InvalidateData drops line from this core's private data caches (L1+L2)
// only. It is the right call for engines that never perform versioned
// accesses (2PL, SONTM): their translation caches and the MVM partition
// are never filled, so skipping those scans is observably identical to
// the full Invalidate — in Reference mode it therefore delegates to the
// oracle's full invalidation.
//
//sitm:allow(chargelint) invalidation is part of the committer's publish step; its cost is charged to the committing thread by the engine's commit Tick, not to the invalidated cores, which do no work.
func (h *Hierarchy) InvalidateData(line mem.Line) {
	if h.ref != nil {
		h.ref.Invalidate(line)
		return
	}
	h.l1.invalidate(line)
	h.l2.invalidate(line)
}

// InvalidatePrivate drops line from this core's private caches and cached
// translation, but not the shared MVM partition. The SI-TM commit calls
// it once per other core and pairs it with a single
// Shared.InvalidateVersions per line: the partition is shared, so
// scanning it once per core (as the fused Invalidate does) is idempotent
// redundancy. In Reference mode it delegates to the oracle's full
// per-core invalidation, reproducing the original redundancy exactly.
//
//sitm:allow(chargelint) invalidation is part of the committer's publish step; its cost is charged to the committing thread by the engine's commit Tick, not to the invalidated cores, which do no work.
func (h *Hierarchy) InvalidatePrivate(line mem.Line) {
	if h.ref != nil {
		h.ref.Invalidate(line)
		return
	}
	h.l1.invalidate(line)
	h.l2.invalidate(line)
	if h.xlate != nil {
		h.xlate.invalidate(xlateLine(line))
	}
}

// InvalidateXlate drops the cached translation of line — the version-list
// line holding its indirection entry — from this core's translation cache
// only. Presence-filtered SI-TM commits pair it with InvalidateData: the
// translation cache is keyed at version-list-line granularity, so the set
// of cores that may hold a translation differs from the set that may hold
// the data line, and the two are filtered independently. In Reference
// mode it delegates to the oracle's full per-core invalidation, whose
// extra scans are idempotent no-ops on structures the caller's paired
// calls already cover.
//
//sitm:allow(chargelint) invalidation is part of the committer's publish step; its cost is charged to the committing thread by the engine's commit Tick, not to the invalidated cores, which do no work.
func (h *Hierarchy) InvalidateXlate(line mem.Line) {
	if h.ref != nil {
		h.ref.Invalidate(line)
		return
	}
	if h.xlate != nil {
		h.xlate.invalidate(xlateLine(line))
	}
}

// InvalidateVersions drops the version-list line holding line's
// indirection entry from the shared MVM partition. Pair with
// InvalidatePrivate (or presence-filtered InvalidateData/InvalidateXlate);
// in Reference mode it scans the oracle's partition — possibly
// redundantly with per-core delegations, which is unobservable because
// invalidation is idempotent.
//
//sitm:allow(chargelint) invalidation is part of the committer's publish step; its cost is charged to the committing thread by the engine's commit Tick, not to the invalidated cores, which do no work.
func (s *Shared) InvalidateVersions(line mem.Line) {
	if s.ref != nil {
		s.ref.InvalidateVersions(line)
		return
	}
	if s.mvm != nil {
		s.mvm.invalidate(xlateLine(line))
	}
}

// xlateLine maps a data line to the version-list line that holds its
// indirection entry: one 64-byte line holds eight version-list entries
// (§3.2 — "a single cache line contains eight version references").
func xlateLine(line mem.Line) mem.Line { return line >> 3 }

// XlateLine exposes the data-line to version-list-line mapping for
// engines that track translation-cache presence (see Presence): the
// translation cache is keyed by version-list line, so presence of
// translations must be recorded at this granularity.
func XlateLine(line mem.Line) mem.Line { return xlateLine(line) }

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }
