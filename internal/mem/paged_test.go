package mem

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestPagedDifferential pins the paged store against the retained dense
// Reference backing: random interleavings of loads, stores, slot
// mutations and resets must observe identical values throughout.
func TestPagedDifferential(t *testing.T) {
	for _, span := range []uint64{100, PageEntries, 3*PageEntries + PageEntries/2} {
		r := rand.New(rand.NewPCG(42, span))
		var fast Paged[uint64]
		var slow Paged[uint64]
		slow.SetReference()
		for op := 0; op < 20000; op++ {
			i := r.Uint64N(span)
			switch r.IntN(10) {
			case 0, 1, 2, 3:
				if got, want := fast.Load(i), slow.Load(i); got != want {
					t.Fatalf("span %d op %d: Load(%d) = %d, reference %d", span, op, i, got, want)
				}
			case 4, 5, 6:
				v := r.Uint64()
				fast.Store(i, v)
				slow.Store(i, v)
			case 7, 8:
				*fast.Slot(i) += i + 1
				*slow.Slot(i) += i + 1
			case 9:
				if r.IntN(50) == 0 {
					fast.Reset()
					slow.Reset()
				}
			}
		}
		// Full sweep at the end, including indices never touched.
		for i := uint64(0); i < span; i++ {
			if got, want := fast.Load(i), slow.Load(i); got != want {
				t.Fatalf("span %d final: Load(%d) = %d, reference %d", span, i, got, want)
			}
		}
	}
}

// TestPagedScanMatchesLoad checks Scan against Load on random sparse
// tables, paged and on the dense reference backing, over random ranges —
// unaligned, empty and past the spine among them. Visits ascend and stay
// in range, each visited entry equals Load, each allocated slot in range
// is visited exactly once, and each slot skipped loads as zero.
func TestPagedScanMatchesLoad(t *testing.T) {
	const span = 8 * PageEntries
	for seed := uint64(1); seed <= 20; seed++ {
		for _, ref := range []bool{false, true} {
			r := rand.New(rand.NewPCG(seed, 7))
			var p Paged[uint64]
			if ref {
				p.SetReference()
			}
			for k, n := 0, r.IntN(400); k < n; k++ {
				p.Store(r.Uint64N(span), 1+r.Uint64N(1000))
				if r.IntN(300) == 0 {
					p.Reset() // leaves allocated pages of zeros
				}
			}
			// allocated reports whether slot i has storage: Scan must
			// visit it, and may visit nothing else.
			allocated := func(i uint64) bool {
				if ref {
					return i < uint64(len(p.ref.v))
				}
				pi := i >> pageShift
				return pi < uint64(len(p.pages)) && p.pages[pi] != nil
			}
			bounds := []uint64{0, 1, PageEntries - 1, PageEntries, PageEntries + 1, span - 1, span, span + 3*PageEntries + 5, math.MaxUint64}
			for q := 0; q < 60; q++ {
				pick := func() uint64 {
					if r.IntN(3) == 0 {
						return bounds[r.IntN(len(bounds))]
					}
					return r.Uint64N(span + 2*PageEntries)
				}
				lo, hi := pick(), pick()
				visited := make(map[uint64]bool)
				next := lo
				p.Scan(lo, hi, func(first uint64, run []uint64) {
					if len(run) == 0 {
						t.Fatalf("seed %d ref %v [%d,%d): empty run at %d", seed, ref, lo, hi, first)
					}
					if first < next || first+uint64(len(run)) > hi {
						t.Fatalf("seed %d ref %v [%d,%d): run [%d,%d) out of order or range", seed, ref, lo, hi, first, first+uint64(len(run)))
					}
					for j, v := range run {
						i := first + uint64(j)
						if want := p.Load(i); v != want {
							t.Fatalf("seed %d ref %v: Scan slot %d = %d, Load %d", seed, ref, i, v, want)
						}
						visited[i] = true
					}
					next = first + uint64(len(run))
				})
				for i := lo; i < min(hi, span+4*PageEntries); i++ {
					if allocated(i) != visited[i] {
						t.Fatalf("seed %d ref %v [%d,%d): slot %d allocated=%v visited=%v", seed, ref, lo, hi, i, allocated(i), visited[i])
					}
					if !visited[i] && p.Load(i) != 0 {
						t.Fatalf("seed %d ref %v [%d,%d): skipped slot %d loads %d", seed, ref, lo, hi, i, p.Load(i))
					}
				}
			}
		}
	}
}

// TestPagedResetOTouched pins the reset-to-pristine cost: after touching k
// pages, exactly k pages are dirty, Reset clears them, and pages stay
// allocated for reuse.
func TestPagedResetOTouched(t *testing.T) {
	var p Paged[uint64]
	// Touch 3 pages out of a 1000-page span.
	for _, pi := range []uint64{0, 500, 999} {
		p.Store(pi*PageEntries+17, pi+1)
	}
	if got := p.Pages(); got != 3 {
		t.Fatalf("Pages() = %d after touching 3 pages", got)
	}
	if got := p.DirtyPages(); got != 3 {
		t.Fatalf("DirtyPages() = %d after touching 3 pages", got)
	}
	p.Reset()
	if got := p.DirtyPages(); got != 0 {
		t.Fatalf("DirtyPages() = %d after Reset", got)
	}
	if got := p.Pages(); got != 3 {
		t.Fatalf("Pages() = %d after Reset; pages must be kept for reuse", got)
	}
	for _, pi := range []uint64{0, 500, 999} {
		if v := p.Load(pi*PageEntries + 17); v != 0 {
			t.Fatalf("Load after Reset = %d, want 0", v)
		}
	}
	// Loads of absent pages never allocate or dirty.
	_ = p.Load(700 * PageEntries)
	if got := p.Pages(); got != 3 {
		t.Fatalf("Pages() = %d after Load of absent page", got)
	}
	if got := p.DirtyPages(); got != 0 {
		t.Fatalf("DirtyPages() = %d after Load of absent page", got)
	}
}

// TestPagedLineStridedFootprint pins the page size against the access
// shape of the serving tier: a word-indexed table written at one word per
// line, over lines scattered across a 2²⁰-line span. It must allocate
// exactly the pages those words fall on, and those pages may hold at most
// 64 entries for every entry the touched lines occupy (4096-entry pages
// would hold ~330 here).
func TestPagedLineStridedFootprint(t *testing.T) {
	const spanLines, touched = 1 << 20, 2000
	var p Paged[uint64]
	need := make(map[uint64]bool)
	r := rand.New(rand.NewPCG(12, 12))
	for k := 0; k < touched; k++ {
		w := r.Uint64N(spanLines) * WordsPerLine
		p.Store(w, w+1)
		need[w>>pageShift] = true
	}
	if got := p.Pages(); got != len(need) {
		t.Fatalf("Pages() = %d, the touched words fall on %d pages", got, len(need))
	}
	if got := p.DirtyPages(); got != len(need) {
		t.Fatalf("DirtyPages() = %d, want %d", got, len(need))
	}
	allocated, used := p.Pages()*PageEntries, touched*WordsPerLine
	if allocated > 64*used {
		t.Fatalf("%d pages hold %d entries for %d lines' %d entries: more than 64x the touched footprint",
			p.Pages(), allocated, touched, used)
	}
}

// TestPagedSlotStable pins the pointer-stability contract: unlike
// Dense.Slot, a Paged slot pointer survives later growth.
func TestPagedSlotStable(t *testing.T) {
	var p Paged[uint64]
	s := p.Slot(5)
	*s = 99
	p.Store(100*PageEntries, 1) // forces spine growth
	if *s != 99 || p.Load(5) != 99 {
		t.Fatalf("slot pointer invalidated by growth: *s=%d Load=%d", *s, p.Load(5))
	}
}

// TestPagedBound checks the spine bound fails loudly on sparse-key bugs.
func TestPagedBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Slot beyond the address-space bound did not panic")
		}
	}()
	var p Paged[uint64]
	p.Slot(uint64(maxPageIndex) * PageEntries)
}

// TestDenseBound checks Dense growth fails loudly instead of allocating
// the whole address-space prefix.
func TestDenseBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dense.Slot beyond MaxDenseEntries did not panic")
		}
	}()
	var d Dense[uint64]
	d.Slot(MaxDenseEntries)
}
