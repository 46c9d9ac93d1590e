package mem

import (
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

// TestPagedRangeMatchesReference checks Range visits exactly the slots the
// reference backing would report as non-zero, in ascending order.
func TestPagedRangeMatchesReference(t *testing.T) {
	var fast Paged[uint64]
	var slow Paged[uint64]
	slow.SetReference()
	r := rand.New(rand.NewPCG(7, 7))
	for k := 0; k < 500; k++ {
		i := r.Uint64N(8 * PageEntries)
		v := 1 + r.Uint64N(1000)
		fast.Store(i, v)
		slow.Store(i, v)
	}
	collect := func(p *Paged[uint64]) map[uint64]uint64 {
		m := make(map[uint64]uint64)
		last := int64(-1)
		p.Range(func(i uint64, v *uint64) {
			if int64(i) <= last {
				t.Fatalf("Range out of order: %d after %d", i, last)
			}
			last = int64(i)
			if *v != 0 {
				m[i] = *v
			}
		})
		return m
	}
	got, want := collect(&fast), collect(&slow)
	if len(got) != len(want) {
		t.Fatalf("Range saw %d non-zero slots, reference %d", len(got), len(want))
	}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("Range slot %d = %d, reference %d", i, got[i], v)
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
