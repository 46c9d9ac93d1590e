package cache

import (
	"testing"

	"repro/internal/mem"
)

// The memory hierarchy is probed on every simulated load and store, so
// Access/AccessVersioned/Invalidate are hot paths of the whole evaluation
// (the engines call them orders of magnitude more often than they commit).
// Each benchmark pins a distinct regime: "hit" is the way-predicted L1
// probe that the fast path exists for, "miss" walks a working set larger
// than the L3 data region so every level scans and evicts.
// AccessPrivate, SI-TM's batching certificate, adds its three outcomes:
// an L1 hit, an L2 hit (a scan that streams through L1 but fits in L2)
// and an L2 miss, which it refuses without touching anything. All of them
// must run allocation-free (TestHotPathsAllocFree asserts it; the CI
// bench smoke and sitm-bench -json report it).

// benchHierarchy builds one core of the Table 1 architecture.
func benchHierarchy() *Hierarchy {
	cfg := DefaultConfig()
	return NewHierarchy(cfg, NewShared(cfg))
}

// missLines is the miss-regime working set: 1 Mi distinct lines, strided
// so consecutive lines map to distinct translation-cache lines too. The
// reuse distance exceeds the 24 MiB L3 data region (384 Ki lines), so
// under LRU every access misses all three levels once warm.
const missLines = 1 << 20

func missLine(i int) mem.Line { return mem.Line(1 + (i&(missLines-1))*8) }

// scanLines is the L2-hit regime's working set: twice L1's 512 lines and
// a quarter of L2's 4096, so cycling through it under LRU misses L1 and
// hits L2 on every access once warm.
const scanLines = 1024

func scanLine(i int) mem.Line { return mem.Line(1 + i&(scanLines-1)) }

// warmScan brings the whole scan working set into h's L2.
func warmScan(h *Hierarchy) {
	for i := 0; i < scanLines; i++ {
		h.Access(scanLine(i))
	}
}

func BenchmarkAccess(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		h := benchHierarchy()
		h.Access(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Access(1)
		}
	})
	b.Run("miss", func(b *testing.B) {
		h := benchHierarchy()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Access(missLine(i))
		}
	})
}

func BenchmarkAccessVersioned(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		h := benchHierarchy()
		h.AccessVersioned(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.AccessVersioned(1)
		}
	})
	b.Run("miss", func(b *testing.B) {
		h := benchHierarchy()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.AccessVersioned(missLine(i))
		}
	})
}

func BenchmarkAccessPrivate(b *testing.B) {
	cfg := DefaultConfig()
	regimes := []struct {
		name string
		warm func(*Hierarchy)
		line func(int) mem.Line
		lat  uint64
		ok   bool
	}{
		{"L1-hit", func(h *Hierarchy) { h.Access(1) }, func(int) mem.Line { return 1 }, cfg.L1Latency, true},
		{"L2-hit", warmScan, scanLine, cfg.L2Latency, true},
		{"L2-miss", func(*Hierarchy) {}, missLine, 0, false},
	}
	for _, r := range regimes {
		b.Run(r.name, func(b *testing.B) {
			h := benchHierarchy()
			r.warm(h)
			if lat, ok := h.AccessPrivate(r.line(0)); lat != r.lat || ok != r.ok {
				b.Fatalf("AccessPrivate = %d, %t; regime wants %d, %t", lat, ok, r.lat, r.ok)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.AccessPrivate(r.line(i))
			}
		})
	}
}

func BenchmarkInvalidate(b *testing.B) {
	// Each iteration fills the line and then invalidates it, so the
	// invalidation always finds the line resident (the expensive case:
	// every level clears a way).
	b.Run("resident", func(b *testing.B) {
		h := benchHierarchy()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Access(1)
			h.Invalidate(1)
		}
	})
	// The absent case scans every level and finds nothing — the shape
	// commit-time invalidation broadcasts hit on cores that never
	// touched the line (before the presence filter prunes them).
	b.Run("absent", func(b *testing.B) {
		h := benchHierarchy()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Invalidate(1)
		}
	})
}

// TestHotPathsAllocFree asserts the hot paths never allocate, in every
// regime — a steady-state allocation here would put GC pressure
// proportional to simulated memory traffic on every experiment.
func TestHotPathsAllocFree(t *testing.T) {
	h := benchHierarchy()
	scan := benchHierarchy()
	warmScan(scan)
	n := 0
	cases := []struct {
		name string
		f    func()
	}{
		{"Access/hit", func() { h.Access(1) }},
		{"Access/miss", func() { h.Access(missLine(n)); n++ }},
		{"AccessVersioned/hit", func() { h.AccessVersioned(1) }},
		{"AccessVersioned/miss", func() { h.AccessVersioned(missLine(n)); n++ }},
		{"AccessPrivate/L1-hit", func() { h.Access(1); h.AccessPrivate(1) }},
		{"AccessPrivate/L2-hit", func() { scan.AccessPrivate(scanLine(n)); n++ }},
		{"AccessPrivate/L2-miss", func() { h.AccessPrivate(missLine(n)); n++ }},
		{"Invalidate", func() { h.Access(1); h.Invalidate(1) }},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(200, c.f); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, allocs)
		}
	}
}
