package cache

import (
	"testing"

	"repro/internal/mem"
)

func newPair() (*Hierarchy, Config) {
	cfg := DefaultConfig()
	sh := NewShared(cfg)
	return NewHierarchy(cfg, sh), cfg
}

func TestColdMissCosts(t *testing.T) {
	h, cfg := newPair()
	if got := h.Access(1); got != cfg.MemLatency {
		t.Fatalf("cold access = %d cycles, want %d", got, cfg.MemLatency)
	}
	if got := h.Access(1); got != cfg.L1Latency {
		t.Fatalf("warm access = %d cycles, want %d (L1 hit)", got, cfg.L1Latency)
	}
}

func TestL1EvictionFallsToL2(t *testing.T) {
	h, cfg := newPair()
	// L1: 32 KiB / 64 B / 4 ways = 128 sets. Lines k*128+set map to the
	// same set; 5 of them overflow the 4 ways.
	var conflict [5]mem.Line
	for i := range conflict {
		conflict[i] = mem.Line(uint64(i+1) * 128)
		h.Access(conflict[i])
	}
	// The first line was evicted from L1 but lives in L2.
	if got := h.Access(conflict[0]); got != cfg.L2Latency {
		t.Fatalf("evicted line = %d cycles, want %d (L2 hit)", got, cfg.L2Latency)
	}
}

func TestSharedL3VisibleAcrossCores(t *testing.T) {
	cfg := DefaultConfig()
	sh := NewShared(cfg)
	h0 := NewHierarchy(cfg, sh)
	h1 := NewHierarchy(cfg, sh)
	h0.Access(42)
	if got := h1.Access(42); got != cfg.L3Latency {
		t.Fatalf("other core access = %d cycles, want %d (shared L3 hit)", got, cfg.L3Latency)
	}
}

func TestInvalidateForcesRefetch(t *testing.T) {
	h, cfg := newPair()
	h.Access(7)
	h.Invalidate(7)
	if got := h.Access(7); got != cfg.L3Latency {
		t.Fatalf("post-invalidate access = %d cycles, want %d (L3, private caches flushed)", got, cfg.L3Latency)
	}
}

func TestVersionedIndirectionPenalty(t *testing.T) {
	cfg := DefaultConfig()
	cfg.XlateEntries = 0 // no translation cache: every L2 miss pays
	sh := NewShared(cfg)
	h := NewHierarchy(cfg, sh)
	// Cold: the version-list line misses the MVM partition (memory)
	// and the data line misses everything (memory).
	if got := h.AccessVersioned(9); got != cfg.MemLatency+cfg.MemLatency {
		t.Fatalf("cold versioned access = %d cycles, want %d", got, 2*cfg.MemLatency)
	}
	// Private-cache hits never pay the indirection.
	if got := h.AccessVersioned(9); got != cfg.L1Latency {
		t.Fatalf("warm versioned access = %d cycles, want %d", got, cfg.L1Latency)
	}
	// A neighbouring data line shares line 9's version-list line, which
	// is now resident in the MVM partition: one L3-latency indirection.
	if got := h.AccessVersioned(10); got != cfg.MemLatency+cfg.L3Latency {
		t.Fatalf("partition-hit versioned access = %d cycles, want %d", got, cfg.MemLatency+cfg.L3Latency)
	}
}

func TestTranslationCacheHidesIndirection(t *testing.T) {
	h, cfg := newPair()
	h.AccessVersioned(8) // warm the translation cache (pays once)
	// Line 9 shares line 8's translation line (8 entries per 64-byte
	// version-list line), so its cold access skips the indirection.
	if got := h.AccessVersioned(9); got != cfg.MemLatency {
		t.Fatalf("xlate-covered access = %d cycles, want %d (no indirection)", got, cfg.MemLatency)
	}
	if h.Stats.XlateHits == 0 {
		t.Fatal("expected a translation cache hit")
	}
}

func TestStatsCount(t *testing.T) {
	h, _ := newPair()
	h.Access(1)
	h.Access(1)
	if h.Stats.MemAccesses != 1 || h.Stats.L1Hits != 1 {
		t.Fatalf("stats = %+v", h.Stats)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, c := range []struct {
		name            string
		sizeBytes, ways int
	}{
		{"zero sets", 32, 3},                       // smaller than one way of lines
		{"wider than the order word", 17 * 64, 17}, // one 17-way set
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: newLevel(%d, %d) did not panic", c.name, c.sizeBytes, c.ways)
				}
			}()
			newLevel(c.sizeBytes, c.ways, nil)
		}()
	}
}

func TestNonPowerOfTwoSetsWork(t *testing.T) {
	l := newLevel(3*64*2, 2, nil) // 3 sets, 2 ways
	for i := 1; i <= 12; i++ {
		l.access(mem.Line(i))
	}
	hits := 0
	for i := 7; i <= 12; i++ { // the 2 most recent lines of each set
		if l.access(mem.Line(i)) {
			hits++
		}
	}
	if hits != 6 {
		t.Fatalf("hits = %d, want 6 (LRU within modulo-indexed sets)", hits)
	}
}

func TestLRUReplacement(t *testing.T) {
	l := newLevel(2*64*2, 2, nil)                    // 2 sets, 2 ways
	a, b, c := mem.Line(2), mem.Line(4), mem.Line(6) // all map to set 0
	l.access(a)
	l.access(b)
	l.access(a) // a is MRU, b is LRU
	l.access(c) // evicts b
	if !l.access(a) {
		t.Fatal("a should still be resident")
	}
	if l.access(b) {
		t.Fatal("b should have been evicted (LRU)")
	}
}
