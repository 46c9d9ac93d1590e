package cache

import (
	"testing"

	"repro/internal/mem"
)

// latencyTrace charges a fixed access pattern and returns the latency
// sequence — the full observable behaviour of a hierarchy.
func latencyTrace(cfg Config) []uint64 {
	sh := NewShared(cfg)
	h := NewHierarchy(cfg, sh)
	var out []uint64
	for i := 0; i < 64; i++ {
		l := mem.Line(i*37%19 + 1)
		out = append(out, h.Access(l), h.AccessVersioned(l+7))
		if i%13 == 0 {
			h.Invalidate(l)
		}
	}
	return out
}

// systemTrace runs a fixed access/commit pattern over the given number of
// cores of a System built from cfg, releases the System into cfg.Scratch,
// and returns the latency sequence followed by the final statistics.
func systemTrace(cfg Config, cores int) []uint64 {
	sys := NewSystem(cfg, false)
	var out []uint64
	for i := 0; i < 256; i++ {
		id := i % cores
		h := sys.Core(id)
		l := mem.Line(i*37%19 + 1)
		out = append(out, h.Access(l), h.AccessVersioned(l+7))
		if i%5 == 0 {
			sys.PublishVersioned(id, l)
		}
		if i%7 == 0 {
			sys.Publish(id, l+7)
		}
	}
	st := sys.Stats()
	out = append(out, st.L1Hits, st.L2Hits, st.L3Hits, st.MemAccesses, st.XlateHits, st.XlateMisses, st.Accesses)
	sys.Release()
	return out
}

// TestScratchReuseIsPristine pins the determinism contract of the pool:
// a hierarchy or System built from recycled arrays and presence tables
// behaves bit-identically to one built from fresh allocations, however
// dirty they were when released. The System is dirtied on four cores and
// replayed on two, so a presence bit left behind for core 2 or 3 would
// send a publish to a core that does not exist.
func TestScratchReuseIsPristine(t *testing.T) {
	cases := []struct {
		name  string
		trace func(Config) []uint64
		dirty func(Config)
	}{
		{"hierarchy", latencyTrace, func(cfg Config) {
			sh := NewShared(cfg)
			h := NewHierarchy(cfg, sh)
			for i := 0; i < 100; i++ {
				h.Access(mem.Line(i + 1)) // dirty the tags before release
			}
			h.Release()
			sh.Release()
		}},
		{"system", func(cfg Config) []uint64 { return systemTrace(cfg, 2) },
			func(cfg Config) { systemTrace(cfg, 4) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fresh := c.trace(DefaultConfig())
			cfg := DefaultConfig()
			cfg.Scratch = NewScratch()
			for round := 0; round < 3; round++ {
				got := c.trace(cfg) // builds, dirties and (for a System) releases
				for i := range fresh {
					if got[i] != fresh[i] {
						t.Fatalf("round %d: trace[%d] = %d, recycled state diverges from fresh (%d)", round, i, got[i], fresh[i])
					}
				}
				// Return dirty state so the next round actually
				// recycles it.
				c.dirty(cfg)
			}
		})
	}
}

// TestScratchRecyclesArrays checks the pool actually reuses backing
// arrays instead of silently allocating fresh ones, and hands them back
// with every set's replacement state pristine (all-zero).
func TestScratchRecyclesArrays(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scratch = NewScratch()
	sh := NewShared(cfg)
	first := &sh.l3.tags[0]
	h := NewHierarchy(cfg, sh)
	for i := 0; i < 5000; i++ {
		h.Access(mem.Line(i*7 + 1)) // dirty tags, order and valid words
	}
	h.Invalidate(8)
	h.Release()
	sh.Release()
	sh2 := NewShared(cfg)
	if &sh2.l3.tags[0] != first {
		t.Fatal("released L3 arrays were not recycled by the next NewShared")
	}
	for _, l := range []*level{sh2.l3, sh2.mvm} {
		for set := range l.sets {
			if l.order[set] != 0 || l.valid[set] != 0 {
				t.Fatalf("recycled level set %d: order %#x, valid %#x, want all-zero", set, l.order[set], l.valid[set])
			}
		}
		for i, tag := range l.tags {
			if tag != 0 {
				t.Fatalf("recycled level tag[%d] = %d, want 0", i, tag)
			}
		}
	}
}

// TestScratchPoolIsBounded pins the pool's memory bound: releases beyond
// maxPoolPerGeometry levels of one geometry are dropped to the garbage
// collector instead of pinning their arrays forever, and acquire drains
// exactly the retained levels before falling back to fresh allocation.
func TestScratchPoolIsBounded(t *testing.T) {
	s := NewScratch()
	const ways = 2
	sizeBytes := 4 * mem.LineBytes * ways // 4 sets
	for i := 0; i < maxPoolPerGeometry+10; i++ {
		s.release(newLevel(sizeBytes, ways, nil))
	}
	g := geometry{sets: 4, ways: ways}
	if got := len(s.free[g]); got != maxPoolPerGeometry {
		t.Fatalf("pool holds %d levels of one geometry, want cap %d", got, maxPoolPerGeometry)
	}
	for i := 0; i < maxPoolPerGeometry; i++ {
		if s.acquire(4, ways) == nil {
			t.Fatalf("acquire %d returned nil with %d levels pooled", i, maxPoolPerGeometry)
		}
	}
	if s.acquire(4, ways) != nil {
		t.Fatal("acquire beyond the pooled count returned a level from an empty pool")
	}
}

// TestNilScratchIsNoop: a nil pool must behave exactly like no pool.
func TestNilScratchIsNoop(t *testing.T) {
	var s *Scratch
	if l := s.acquire(4, 2); l != nil {
		t.Fatal("nil scratch returned a level")
	}
	s.release(newLevel(4*64*2, 2, nil)) // must not panic
	sh := NewShared(DefaultConfig())
	sh.Release() // nil cfg.Scratch: no-op, must not panic
}
