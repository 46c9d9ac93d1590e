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

// TestScratchReuseIsPristine pins the determinism contract of the pool:
// a hierarchy built from recycled arrays behaves bit-identically to one
// built from fresh allocations, however dirty the arrays were when
// released.
func TestScratchReuseIsPristine(t *testing.T) {
	fresh := latencyTrace(DefaultConfig())

	cfg := DefaultConfig()
	cfg.Scratch = NewScratch()
	for round := 0; round < 3; round++ {
		got := latencyTrace(cfg) // builds, dirties and leaks into the pool
		for i := range fresh {
			if got[i] != fresh[i] {
				t.Fatalf("round %d: latency[%d] = %d, recycled arrays diverge from fresh (%d)", round, i, got[i], fresh[i])
			}
		}
		// Return the arrays so the next round actually recycles them.
		sh := NewShared(cfg)
		h := NewHierarchy(cfg, sh)
		for i := 0; i < 100; i++ {
			h.Access(mem.Line(i + 1)) // dirty the tags before release
		}
		h.Release()
		sh.Release()
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
