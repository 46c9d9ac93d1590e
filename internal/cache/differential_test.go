package cache

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// This file pins the way-predicted fast path in cache.go to the verbatim
// reference implementation in slow.go at the property level: random
// access/invalidate/release streams must observe identical latencies and
// identical stats from both. The engine-level pin lives in
// internal/tmtest and the report-level pin in internal/harness.

// diffConfig is one geometry the property test sweeps and the span of
// lines its random streams draw from.
type diffConfig struct {
	cfg   Config
	lines int
}

// diffConfigs are the geometries the property test sweeps: the paper's
// architecture plus deliberately awkward shapes — tiny caches so random
// streams actually evict, a non-power-of-two L3 data region (modulo
// indexing), no translation cache, no MVM partition, direct-mapped
// private caches, and 16-way L1/L3 with an 8-way L2, whose sets fill and
// evict at every width the recency order encodes (the default config's
// 16-way L3 never fills a set on these streams).
func diffConfigs() []diffConfig {
	small := Config{
		L1SizeBytes: 2 << 10, L1Ways: 2, L1Latency: 4,
		L2SizeBytes: 4 << 10, L2Ways: 4, L2Latency: 8,
		L3SizeBytes: 24 << 10, L3Ways: 4, L3Latency: 30, // 24 KiB: non-power-of-two sets
		MVMPartBytes: 8 << 10,
		MemLatency:   100,
		XlateEntries: 8,
	}
	noXlate := small
	noXlate.XlateEntries = 0
	noMVM := small
	noMVM.MVMPartBytes = 0
	oneWay := small
	oneWay.L1Ways = 1
	oneWay.L2Ways = 1
	wide := Config{
		L1SizeBytes: 2 << 10, L1Ways: 16, L1Latency: 4, // 2 sets
		L2SizeBytes: 4 << 10, L2Ways: 8, L2Latency: 8, // 8 sets
		L3SizeBytes: 13 << 10, L3Ways: 16, L3Latency: 30, // 12-set data region
		MVMPartBytes: 1 << 10, // one 16-way set
		MemLatency:   100,
		XlateEntries: 8,
	}
	return []diffConfig{
		{DefaultConfig(), 192}, {small, 192}, {noXlate, 192}, {noMVM, 192}, {oneWay, 192},
		// 320 lines overflow the 192-line L3 data region.
		{wide, 320},
	}
}

// diffPair is one simulated machine driven through both implementations.
type diffPair struct {
	cfg   Config
	lines int // line span of the random stream
	sh    *Shared
	fast  []*Hierarchy
	ssh   *SlowShared
	slow  []*SlowHierarchy
}

func newDiffPair(cfg Config, lines, cores int) *diffPair {
	p := &diffPair{cfg: cfg, lines: lines, sh: NewShared(cfg), ssh: NewSlowShared(cfg)}
	for i := 0; i < cores; i++ {
		p.fast = append(p.fast, NewHierarchy(cfg, p.sh))
		p.slow = append(p.slow, NewSlowHierarchy(cfg, p.ssh))
	}
	return p
}

// step applies one random operation to both sides and fails on any
// observable divergence. versioned gates AccessVersioned and the
// split-invalidation pattern (engines that never do versioned accesses
// use invalidateData, whose equivalence only holds on such streams).
func (p *diffPair) step(t *testing.T, rng *rand.Rand, versioned bool) {
	t.Helper()
	core := rng.Intn(len(p.fast))
	// A small line space forces set conflicts; the occasional huge line
	// exercises the wide-modulo fallback of setOf.
	line := mem.Line(rng.Intn(p.lines) + 1)
	if rng.Intn(64) == 0 {
		line = mem.Line(rng.Uint64() | 1<<40)
	}
	f, s := p.fast[core], p.slow[core]
	switch op := rng.Intn(12); {
	case op >= 10: // horizon-batched access: private hit, else the full access
		if rng.Intn(16) == 0 {
			line = 0
		}
		p.accessPrivate(t, core, line, versioned && rng.Intn(2) == 0)
	case op < 5: // plain access
		if got, want := f.Access(line), s.Access(line); got != want {
			t.Fatalf("core %d Access(%d) = %d, oracle %d", core, line, got, want)
		}
	case op < 8 && versioned: // versioned access
		if got, want := f.AccessVersioned(line), s.AccessVersioned(line); got != want {
			t.Fatalf("core %d AccessVersioned(%d) = %d, oracle %d", core, line, got, want)
		}
	case op < 9 && versioned:
		// SI-TM commit publish: every core but the committer drops its
		// private copies; the shared partition is scanned once (fast)
		// vs once per other core (oracle — idempotent redundancy).
		// Half the time the private drop is the fused invalidatePrivate,
		// half the split invalidateData + invalidateXlate composition
		// the presence-filtered publish path issues (the two presence
		// tables may prune different core sets per line, so PublishVersioned
		// delivers the data and translation shootdowns independently).
		split := rng.Intn(2) == 0
		others := 0
		for i := range p.fast {
			if i != core {
				if split {
					p.fast[i].invalidateData(line)
					p.fast[i].invalidateXlate(line)
				} else {
					p.fast[i].invalidatePrivate(line)
				}
				p.slow[i].Invalidate(line)
				others++
			}
		}
		if others > 0 {
			p.sh.invalidateVersions(line)
		}
	case op < 9: // 2PL/SONTM commit publish: data caches only
		for i := range p.fast {
			if i != core {
				p.fast[i].invalidateData(line)
				p.slow[i].Invalidate(line)
			}
		}
	default: // full fused invalidation (self), as tests and tools use it
		f.Invalidate(line)
		s.Invalidate(line)
	}
	if f.Stats != s.Stats {
		t.Fatalf("core %d stats diverge: fast %+v, oracle %+v", core, f.Stats, s.Stats)
	}
}

// accessPrivate checks Hierarchy.AccessPrivate on the fast side against
// the oracle's full access of the same kind: a private hit must charge
// exactly what the oracle charges, and that must be the L1 or L2 latency;
// a refusal must leave the fast side untouched, so its full access still
// matches the oracle, which must then have missed L2 (line 0, which the
// method always refuses, excepted). The caller's Stats check covers both.
func (p *diffPair) accessPrivate(t *testing.T, core int, line mem.Line, versioned bool) {
	t.Helper()
	f, s := p.fast[core], p.slow[core]
	lat, ok := f.AccessPrivate(line)
	var want uint64
	if versioned {
		if !ok {
			lat = f.AccessVersioned(line)
		}
		want = s.AccessVersioned(line)
	} else {
		if !ok {
			lat = f.Access(line)
		}
		want = s.Access(line)
	}
	if lat != want {
		t.Fatalf("core %d AccessPrivate(%d) ok=%t: latency %d, oracle %d", core, line, ok, lat, want)
	}
	private := want == p.cfg.L1Latency || want == p.cfg.L2Latency
	if ok && !private {
		t.Fatalf("core %d AccessPrivate(%d) hit at latency %d, not L1 or L2", core, line, lat)
	}
	if !ok && private && line != 0 {
		t.Fatalf("core %d AccessPrivate(%d) refused a private hit (latency %d)", core, line, want)
	}
}

// TestDifferentialFastVsSlow drives random operation streams through the
// fast and reference hierarchies across geometries, core counts and
// scratch reuse (each session releases the fast side's arrays into a
// shared pool and rebuilds from it, so recycled state is compared against
// the always-fresh oracle).
func TestDifferentialFastVsSlow(t *testing.T) {
	for ci, dc := range diffConfigs() {
		for _, cores := range []int{1, 3} {
			for _, versioned := range []bool{true, false} {
				rng := rand.New(rand.NewSource(int64(1000*ci + 10*cores + boolInt(versioned))))
				cfg := dc.cfg
				cfg.Scratch = NewScratch()
				for session := 0; session < 3; session++ {
					p := newDiffPair(cfg, dc.lines, cores)
					for i := 0; i < 4000; i++ {
						p.step(t, rng, versioned)
					}
					for _, h := range p.fast {
						h.Release()
					}
					p.sh.Release()
				}
			}
		}
	}
}

// TestReferenceModeMatchesFast pins Config.Reference: a hierarchy built
// in reference mode must observe exactly what the fast path observes, and
// never certifies a private hit (its hits go through the oracle).
func TestReferenceModeMatchesFast(t *testing.T) {
	cfg := diffConfigs()[1].cfg
	fsh := NewShared(cfg)
	fast := NewHierarchy(cfg, fsh)
	rcfg := cfg
	rcfg.Reference = true
	rsh := NewShared(rcfg)
	ref := NewHierarchy(rcfg, rsh)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		line := mem.Line(rng.Intn(192) + 1)
		if _, ok := ref.AccessPrivate(line); ok {
			t.Fatalf("reference AccessPrivate(%d) certified a hit", line)
		}
		if rng.Intn(3) == 0 {
			if got, want := fast.AccessVersioned(line), ref.AccessVersioned(line); got != want {
				t.Fatalf("AccessVersioned(%d) = %d fast, %d reference", line, got, want)
			}
		} else {
			if got, want := fast.Access(line), ref.Access(line); got != want {
				t.Fatalf("Access(%d) = %d fast, %d reference", line, got, want)
			}
		}
		if rng.Intn(10) == 0 {
			fast.Invalidate(line)
			ref.Invalidate(line)
		}
	}
	if fast.Stats != ref.Stats {
		t.Fatalf("stats diverge: fast %+v, reference %+v", fast.Stats, ref.Stats)
	}
}

// TestSetOfMatchesOracle pins the Lemire fastmod set indexing against the
// oracle's plain modulo, including lines past 2^32 (the div fallback).
func TestSetOfMatchesOracle(t *testing.T) {
	for _, sets := range []int{3, 5, 12, 24576, 1 << 13} {
		f := &level{sets: sets}
		s := &slowLevel{sets: sets}
		if sets&(sets-1) == 0 {
			f.setMask = uint64(sets - 1)
			s.setMask = uint64(sets - 1)
		} else {
			f.modMul = ^uint64(0)/uint64(sets) + 1
		}
		rng := rand.New(rand.NewSource(int64(sets)))
		for i := 0; i < 20000; i++ {
			n := mem.Line(rng.Uint64())
			switch rng.Intn(3) {
			case 0:
				n &= 0xFFFF
			case 1:
				n &= 0xFFFFFFFF
			}
			if got, want := f.setOf(n), s.setOf(n); got != want {
				t.Fatalf("sets=%d: setOf(%d) = %d, want %d", sets, n, got, want)
			}
		}
	}
}

// TestRecencyOrderMatchesModel pins the nibble-packed recency order of
// level against a slice model for every width from 1 to 16 ways: starting
// from the zero (identity) word, random moves to the front must leave
// wayPos, toFront and the LRU nibble agreeing with a plain list.
func TestRecencyOrderMatchesModel(t *testing.T) {
	for ways := 1; ways <= maxWays; ways++ {
		l := newLevel(ways*mem.LineBytes, ways, nil) // one set
		model := make([]int, ways)
		for i := range model {
			model[i] = i
		}
		order := l.order[0]
		rng := rand.New(rand.NewSource(int64(ways)))
		for step := 0; step < 2000; step++ {
			if order == 0 {
				order = l.ident
			}
			for pos, way := range model {
				if got := int(order >> (4 * pos) & 15); got != way {
					t.Fatalf("ways=%d step %d: order %#x has way %d at position %d, model %v", ways, step, order, got, pos, model)
				}
			}
			if order>>(4*ways) != 0 {
				t.Fatalf("ways=%d step %d: order %#x has nibbles past the last way", ways, step, order)
			}
			way := rng.Intn(ways)
			if rng.Intn(4) == 0 {
				way = model[ways-1] // the LRU victim's move
			}
			pos := wayPos(order, way)
			if model[pos] != way {
				t.Fatalf("ways=%d step %d: wayPos(%#x, %d) = %d, model %v", ways, step, order, way, pos, model)
			}
			order = toFront(order, pos, way)
			copy(model[1:pos+1], model[:pos])
			model[0] = way
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
