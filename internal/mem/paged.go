package mem

// Paged is a page-granular sparse table keyed by the same small dense
// indices as Dense — word numbers (WordIndex) or line numbers — built for
// serving-scale footprints: a 10⁶+-line address span where a cell touches
// only a sliver of it. Dense grows to the maximum index ever touched, so
// one stray access at index 2²⁴ allocates (and later makes the collector
// walk) the whole prefix. Paged allocates fixed-size pages lazily on
// first write, so the heap tracks the *touched* pages, not the address
// span, and teardown/GC cost does too.
//
// Pages never move once allocated, so — unlike Dense.Slot — a pointer
// returned by Slot stays valid across later growth.
//
// Dirty pages are tracked the same way the cache hierarchy tracks dirty
// replacement-state sets (cache.level dirtyBits/dirtySets): Slot/Store
// record the page on first mutation since the last Reset, and Reset
// clears exactly those pages — reset-to-pristine in O(touched), keeping
// the page allocations for reuse.
//
// The zero Paged is empty and ready to use. SetReference switches the
// table to the retained dense backing (Dense, verbatim) — the
// differential oracle the paged fast path is pinned against at the
// property, engine-registry and report byte-identity levels, following
// the house Reference pattern.
type Paged[T any] struct {
	pages []*pageOf[T]
	dirty []int32 // indices of pages mutated since the last Reset
	ref   *Dense[T]
}

// Page geometry: 512 entries per page, 4 KiB at 8-byte entries. The size
// is set by the sparsest access shape: the serving tier's word-indexed
// tables are touched at one word per line, so a touched line uses 1 of
// the 8 entries it spans, and a scattered Zipfian tail puts most touched
// lines on pages of their own. Every untouched entry on an allocated page
// is heap a cell allocates and clears: 8x larger pages cost the OLTP tier
// about half again its peak RSS, while the dense STAMP and micro spans,
// which fill their pages, gain nothing from them. The spine costs one
// pointer per page — 128 KiB for the word table of a 2²⁰-line span.
const (
	pageShift = 9
	// PageEntries is the number of table entries per page.
	PageEntries = 1 << pageShift
	pageMask    = PageEntries - 1

	// maxIndexBits bounds the page spine like MaxDenseEntries bounds
	// Dense: a sparse-key bug (an address computed from corrupt data)
	// fails loudly instead of allocating an enormous spine. Indices up to
	// 2³⁸ are allowed — far past any simulated footprint — whatever the
	// page size; maxPageIndex is that bound in pages.
	maxIndexBits = 38
	maxPageIndex = 1 << (maxIndexBits - pageShift)
)

// pageOf is one allocated page plus its dirty mark. The mark lives with
// the page so the Slot fast path touches one cache line for both.
type pageOf[T any] struct {
	dirty bool
	v     [PageEntries]T
}

// SetReference switches the table to the retained dense backing. It must
// be called before the first access; engines call it at construction
// when EngineOptions.ReferenceStore is set.
func (p *Paged[T]) SetReference() {
	if p.ref == nil {
		p.ref = &Dense[T]{}
	}
}

// Reference reports whether the table uses the retained dense backing.
func (p *Paged[T]) Reference() bool { return p.ref != nil }

// Load returns the value at index i, or the zero value when i was never
// stored. It never allocates: reading an absent page leaves it absent.
// The dense lookup is written out rather than calling Dense.Load, which
// keeps Load cheap enough to inline inside one-line wrappers such as
// eager.Engine.NonTxRead.
func (p *Paged[T]) Load(i uint64) (v T) {
	if r := p.ref; r != nil {
		if i < uint64(len(r.v)) {
			v = r.v[i]
		}
	} else if pi := i >> pageShift; pi < uint64(len(p.pages)) {
		if pg := p.pages[pi]; pg != nil {
			v = pg.v[i&pageMask]
		}
	}
	return v
}

// Slot returns a pointer to the value at index i, allocating the page on
// first touch. The pointer stays valid across later growth (pages never
// move). The page is marked dirty: Reset will clear it.
func (p *Paged[T]) Slot(i uint64) *T {
	if p.ref != nil {
		return p.ref.Slot(i)
	}
	pi := i >> pageShift
	var pg *pageOf[T]
	if pi < uint64(len(p.pages)) {
		pg = p.pages[pi]
	}
	if pg == nil {
		pg = p.grow(pi)
	}
	if !pg.dirty {
		pg.dirty = true
		p.dirty = append(p.dirty, int32(pi))
	}
	return &pg.v[i&pageMask]
}

// Store sets the value at index i, allocating the page on first touch.
func (p *Paged[T]) Store(i uint64, x T) { *p.Slot(i) = x }

// grow extends the spine to cover page pi and allocates the page.
func (p *Paged[T]) grow(pi uint64) *pageOf[T] {
	if pi >= maxPageIndex {
		panic("mem: Paged index exceeds the address-space bound — a sparse-key bug in the workload, not a footprint limit")
	}
	if pi >= uint64(len(p.pages)) {
		if pi < uint64(cap(p.pages)) {
			p.pages = p.pages[:pi+1]
		} else {
			n := uint64(cap(p.pages)) * 2
			if n < 64 {
				n = 64
			}
			for n <= pi {
				n *= 2
			}
			spine := make([]*pageOf[T], n)
			copy(spine, p.pages)
			p.pages = spine[:pi+1]
		}
	}
	pg := &pageOf[T]{}
	p.pages[pi] = pg
	return pg
}

// Reset returns the table to pristine (every Load yields the zero value)
// in O(pages touched since the last Reset), keeping page allocations for
// reuse — the cache.dirtySets pattern at page granularity. Under the
// dense reference backing the reset is the reference cost: a clear of
// the whole grown prefix.
func (p *Paged[T]) Reset() {
	if p.ref != nil {
		clear(p.ref.v)
		return
	}
	for _, pi := range p.dirty {
		pg := p.pages[pi]
		clear(pg.v[:])
		pg.dirty = false
	}
	p.dirty = p.dirty[:0]
}

// Scan calls f once per allocated page that meets [lo, hi), in
// ascending index order, with that page's entries clipped to the range:
// run[j] is the entry at index first+j. Absent pages are skipped (every
// entry on them reads as the zero value), as are indices past the spine,
// so a scan costs time in proportion to the allocated pages it meets,
// not to the width of the range. Under the dense reference backing Scan
// makes one call, over the stored prefix clipped to the range. run
// aliases the table, so f may rewrite entries through it; f must not
// call Slot or Store, which may move a dense backing.
func (p *Paged[T]) Scan(lo, hi uint64, f func(first uint64, run []T)) {
	if r := p.ref; r != nil {
		hi = min(hi, uint64(len(r.v)))
		if lo < hi {
			f(lo, r.v[lo:hi])
		}
		return
	}
	hi = min(hi, uint64(len(p.pages))<<pageShift)
	for lo < hi {
		pi := lo >> pageShift
		end := min((pi+1)<<pageShift, hi)
		if pg := p.pages[pi]; pg != nil {
			f(lo, pg.v[lo&pageMask:end-pi<<pageShift])
		}
		lo = end
	}
}

// Pages returns the number of allocated pages — the footprint metric the
// serving-scale tests assert on (heap ∝ touched pages, not address
// span). Under the dense reference backing it reports the equivalent
// page count of the grown prefix.
func (p *Paged[T]) Pages() int {
	if p.ref != nil {
		return (len(p.ref.v) + PageEntries - 1) / PageEntries
	}
	n := 0
	for _, pg := range p.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// DirtyPages returns the number of pages mutated since the last Reset —
// the exact cost of the next Reset, exposed so tests can pin the
// O(touched) bound.
func (p *Paged[T]) DirtyPages() int {
	if p.ref != nil {
		return (len(p.ref.v) + PageEntries - 1) / PageEntries
	}
	return len(p.dirty)
}
