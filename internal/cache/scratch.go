package cache

// geometry identifies interchangeable level backing arrays: two levels
// with the same set and way counts have identically sized tag and
// per-set state storage.
type geometry struct {
	sets, ways int
}

// maxPoolPerGeometry caps how many idle levels a pool keeps per geometry.
// A sweep needs at most one L1/L2/xlate per simulated core, and the
// evaluated core counts top out at 64 (Figure 8), so the cap never causes
// steady-state reallocation; it only stops a sweep that mixes geometries
// (e.g. scaling cache sizes) from pinning every retired variant's
// multi-megabyte arrays forever.
const maxPoolPerGeometry = 64

// Scratch recycles the tag and per-set recency arrays of simulated cache
// levels across simulations. A full hierarchy allocates several megabytes
// per cell (Table 1's 32 MiB L3 alone is half a million tags), which
// dominated the per-cell setup cost of the evaluation sweeps; with a
// scratch, a worker's next cell reuses the previous cell's arrays.
//
// Determinism: an acquired level is reset to the exact state a fresh
// allocation would have (zero tags and all-zero recency order and
// valid-way words), so a cell behaves bit-identically whether its arrays
// are fresh or recycled. The reset clears only the sets the previous
// owner dirtied (see level.reset), not the whole array.
//
// A Scratch is not safe for concurrent use. The harness keeps one per
// experiment worker (shared-nothing), matching the runner's cell
// execution model. A nil *Scratch is valid and disables pooling.
type Scratch struct {
	free map[geometry][]*level
	// presence pools pristine presence-filter bit tables (see
	// presence.release): the paged spines and their touched pages carry
	// over to the next cell instead of being reallocated.
	presence []presence
}

// NewScratch returns an empty pool.
func NewScratch() *Scratch {
	return &Scratch{free: make(map[geometry][]*level)}
}

// acquire returns a recycled level of the given geometry reset to its
// pristine state, or nil when the pool has none (or s is nil).
func (s *Scratch) acquire(sets, ways int) *level {
	if s == nil {
		return nil
	}
	g := geometry{sets: sets, ways: ways}
	pool := s.free[g]
	if len(pool) == 0 {
		return nil
	}
	l := pool[len(pool)-1]
	s.free[g] = pool[:len(pool)-1]
	l.reset()
	return l
}

// release returns a level's arrays to the pool, unless the pool already
// holds maxPoolPerGeometry levels of that geometry (the level is then
// left to the garbage collector). Safe on a nil Scratch or a nil level
// (both no-ops).
func (s *Scratch) release(l *level) {
	if s == nil || l == nil {
		return
	}
	g := geometry{sets: l.sets, ways: l.ways}
	if len(s.free[g]) >= maxPoolPerGeometry {
		return
	}
	s.free[g] = append(s.free[g], l)
}

// Release returns the shared L3's arrays to the configured scratch pool.
// The Shared must not be used afterwards.
func (s *Shared) Release() {
	s.cfg.Scratch.release(s.l3)
	s.cfg.Scratch.release(s.mvm)
	s.l3, s.mvm = nil, nil
}

// Release returns one core's private arrays to the configured scratch
// pool. The Hierarchy must not be used afterwards; the shared L3 is
// released separately via Shared.Release.
func (h *Hierarchy) Release() {
	h.cfg.Scratch.release(h.l1)
	h.cfg.Scratch.release(h.l2)
	h.cfg.Scratch.release(h.xlate)
	h.l1, h.l2, h.xlate = nil, nil, nil
}
