package mem

// WordIndex returns a's global word number (Addr >> 3). It is the natural
// key for word-granular side tables: simulated addresses come from the
// bump allocator, so word numbers are small and dense.
func WordIndex(a Addr) uint64 { return uint64(a) >> wordShift }

// WordSpan returns the word numbers [first, end) of the word-aligned
// addresses in [lo, hi): a range scan over a word-indexed table covers
// exactly those.
func WordSpan(lo, hi Addr) (first, end uint64) {
	return wordCeil(lo), wordCeil(hi)
}

// wordCeil rounds a up to a word number without overflowing at the top
// of the address space.
func wordCeil(a Addr) uint64 {
	return uint64(a)>>wordShift + (uint64(a)&(WordBytes-1)+WordBytes-1)>>wordShift
}

// Dense is a flat table keyed by small dense indices — word numbers
// (WordIndex) or line numbers. The simulated address space is bump
// allocated from address 64 upward, so the engines' per-word values and
// per-line metadata, previously Go maps on the hottest access paths,
// live equally well in a slice indexed directly by word/line number:
// a load is a bounds check instead of a hash.
//
// The zero Dense is empty and ready to use. Load of an index never
// stored returns the zero value, like a map read; Slot grows the table
// (indices stay bounded by Allocator.Brk, so growth is bounded by the
// simulated footprint).
type Dense[T any] struct {
	v []T
}

// Load returns the value at index i, or the zero value when i was never
// stored.
func (d *Dense[T]) Load(i uint64) T {
	if i < uint64(len(d.v)) {
		return d.v[i]
	}
	var zero T
	return zero
}

// Slot returns a pointer to the value at index i, growing the table as
// needed. The pointer is invalidated by the next growing Slot call.
func (d *Dense[T]) Slot(i uint64) *T {
	if i >= uint64(len(d.v)) {
		d.grow(i)
	}
	return &d.v[i]
}

// Store sets the value at index i, growing the table as needed.
func (d *Dense[T]) Store(i uint64, x T) { *d.Slot(i) = x }

// MaxDenseEntries bounds Dense growth. Doubling to an arbitrary maximum
// index silently allocates the whole address-space prefix, so a sparse-key
// bug in a workload (an address computed from corrupt data) turns into a
// quiet OOM; the bound makes it fail loudly instead. Real footprints stay
// far below it — serving-scale workloads with sparse spans belong on
// Paged, which allocates proportional to touched pages.
const MaxDenseEntries = 1 << 26

func (d *Dense[T]) grow(i uint64) {
	if i >= MaxDenseEntries {
		panic("mem: Dense index exceeds MaxDenseEntries — sparse-key bug, or a footprint that belongs on mem.Paged")
	}
	n := uint64(cap(d.v)) * 2
	if n < 1024 {
		n = 1024
	}
	for n <= i {
		n *= 2
	}
	nv := make([]T, n)
	copy(nv, d.v)
	d.v = nv
}

// Slice exposes the backing storage for iteration (index = key). Unlike
// a map range, iteration order is the key order, deterministic by
// construction; most entries are zero values and must be skipped.
func (d *Dense[T]) Slice() []T { return d.v }
