// Package aset provides the access-set structures the TM engines track
// transactions with: open-addressing line tables fronted by one-word
// Bloom signatures, per-line reader bitmaps over transaction slots
// (ReadHolds, which 2PL and SONTM keep their read holds in), and
// epoch-stamped per-line reader lists (Readers, which now serves only
// SSI-TM, whose reader records must outlive the transaction). Real HTMs
// track read/write sets with fixed hardware structures — signatures and
// limited set tables — rather than software hash maps; these types are
// the software rendering of that design, replacing the Go maps that
// dominated the engines' per-access cost: a membership probe is one
// word-AND in the common "line not in my set" case and a short linear
// probe otherwise, and resetting a set between transaction attempts
// touches only the entries the transaction used, so recycled
// transactions keep their grown capacity without rehash churn.
//
// All types are single-simulation state, used only under the
// deterministic scheduler: no locking, and iteration order is always
// first-insertion order, never hash order.
package aset

import (
	"math/bits"

	"repro/internal/mem"
)

// minTable is the smallest table a set allocates: small enough that a
// short transaction stays cache-resident, large enough that typical
// transactions never grow.
const minTable = 16

// hashMul is the golden-ratio multiplier of the multiply-shift hash
// (Fibonacci hashing): the high bits of line*hashMul are well mixed, so
// the slot index is taken from the top of the product and the signature
// bit from the middle.
const hashMul = 0x9E3779B97F4A7C15

// hashLine mixes a line number. Lines are keyed as line+1 so that a zero
// table word can serve as the empty sentinel (line 0 itself is legal:
// only address 0 is reserved by the allocator).
func hashLine(l mem.Line) uint64 { return (uint64(l) + 1) * hashMul }

// sigBit returns the line's bit in the one-word Bloom signature. The bit
// index comes from product bits the slot index does not use, so signature
// and table misses stay independent.
func sigBit(h uint64) uint64 { return 1 << ((h >> 50) & 63) }

// LineSet is a set of cache lines: a power-of-two open-addressing table
// with linear probing, a Bloom signature for O(1) miss rejection, and
// first-insertion iteration order. The zero value is an empty set.
type LineSet struct {
	sig   uint64
	shift uint8
	tab   []uint64 // line+1 per slot; 0 = empty
	lines []mem.Line
	slots []uint32 // lines[i] occupies tab[slots[i]]
}

// Len returns the number of lines in the set.
func (s *LineSet) Len() int { return len(s.lines) }

// Lines returns the set's lines in first-insertion order (shared slice;
// callers must not modify it, and Reset invalidates it).
func (s *LineSet) Lines() []mem.Line { return s.lines }

// Contains reports whether l is in the set. The signature rejects most
// misses with a single AND.
func (s *LineSet) Contains(l mem.Line) bool {
	h := hashLine(l)
	if s.sig&sigBit(h) == 0 {
		return false
	}
	mask := uint64(len(s.tab) - 1)
	k := uint64(l) + 1
	for i := h >> s.shift; ; i = (i + 1) & mask {
		switch s.tab[i] {
		case k:
			return true
		case 0:
			return false
		}
	}
}

// Add inserts l and reports whether it was absent.
func (s *LineSet) Add(l mem.Line) bool {
	if 2*len(s.lines) >= len(s.tab) {
		s.grow()
	}
	h := hashLine(l)
	mask := uint64(len(s.tab) - 1)
	k := uint64(l) + 1
	i := h >> s.shift
	for s.tab[i] != 0 {
		if s.tab[i] == k {
			return false
		}
		i = (i + 1) & mask
	}
	s.tab[i] = k
	s.sig |= sigBit(h)
	s.lines = append(s.lines, l)
	s.slots = append(s.slots, uint32(i))
	return true
}

// Reset empties the set in O(touched): only the slots the set's lines
// occupy are cleared, so the grown table capacity survives for the next
// transaction without a rehash.
func (s *LineSet) Reset() {
	for _, slot := range s.slots {
		s.tab[slot] = 0
	}
	s.lines = s.lines[:0]
	s.slots = s.slots[:0]
	s.sig = 0
}

// grow doubles the table (allocating the minimum on first use) and
// rehashes the existing lines, recording their new slots.
func (s *LineSet) grow() {
	n := 2 * len(s.tab)
	if n < minTable {
		n = minTable
	}
	s.tab = make([]uint64, n)
	s.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	mask := uint64(n - 1)
	for j, l := range s.lines {
		i := hashLine(l) >> s.shift
		for s.tab[i] != 0 {
			i = (i + 1) & mask
		}
		s.tab[i] = uint64(l) + 1
		s.slots[j] = uint32(i)
	}
}

// LineMap is a map from cache lines to values of type T with the LineSet
// layout plus a value lane: values live in a slot-parallel slab, so
// entries are index-linked rather than pointer-allocated and a recycled
// transaction reuses the slab in place. The zero value is an empty map.
//
// Value pointers returned by Get/Put/At are invalidated by the next Put
// (which may grow the table) and by Reset.
type LineMap[T any] struct {
	sig   uint64
	shift uint8
	tab   []uint64 // line+1 per slot; 0 = empty
	vals  []T      // slot-parallel value slab
	lines []mem.Line
	slots []uint32
}

// Len returns the number of entries.
func (m *LineMap[T]) Len() int { return len(m.lines) }

// Lines returns the keys in first-insertion order (shared slice; callers
// must not modify it, and Reset invalidates it).
func (m *LineMap[T]) Lines() []mem.Line { return m.lines }

// At returns the i-th inserted entry without probing.
func (m *LineMap[T]) At(i int) (mem.Line, *T) {
	return m.lines[i], &m.vals[m.slots[i]]
}

// Has reports whether l has an entry.
func (m *LineMap[T]) Has(l mem.Line) bool {
	_, ok := m.Get(l)
	return ok
}

// Get returns the value slot for l, or (nil, false) when absent. The
// signature rejects most misses with a single AND.
func (m *LineMap[T]) Get(l mem.Line) (*T, bool) {
	h := hashLine(l)
	if m.sig&sigBit(h) == 0 {
		return nil, false
	}
	mask := uint64(len(m.tab) - 1)
	k := uint64(l) + 1
	for i := h >> m.shift; ; i = (i + 1) & mask {
		switch m.tab[i] {
		case k:
			return &m.vals[i], true
		case 0:
			return nil, false
		}
	}
}

// Put returns the value slot for l, inserting a zero entry when absent,
// and reports whether it inserted.
func (m *LineMap[T]) Put(l mem.Line) (*T, bool) {
	if 2*len(m.lines) >= len(m.tab) {
		m.grow()
	}
	h := hashLine(l)
	mask := uint64(len(m.tab) - 1)
	k := uint64(l) + 1
	i := h >> m.shift
	for m.tab[i] != 0 {
		if m.tab[i] == k {
			return &m.vals[i], false
		}
		i = (i + 1) & mask
	}
	m.tab[i] = k
	m.sig |= sigBit(h)
	m.lines = append(m.lines, l)
	m.slots = append(m.slots, uint32(i))
	return &m.vals[i], true
}

// Reset empties the map in O(touched), zeroing only the value slots the
// map's entries occupy so the slab is pristine for the next transaction.
func (m *LineMap[T]) Reset() {
	var zero T
	for _, slot := range m.slots {
		m.tab[slot] = 0
		m.vals[slot] = zero
	}
	m.lines = m.lines[:0]
	m.slots = m.slots[:0]
	m.sig = 0
}

// grow doubles the table and rehashes, carrying each entry's value to its
// new slot.
func (m *LineMap[T]) grow() {
	n := 2 * len(m.tab)
	if n < minTable {
		n = minTable
	}
	oldVals := m.vals
	m.tab = make([]uint64, n)
	m.vals = make([]T, n)
	m.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	mask := uint64(n - 1)
	for j, l := range m.lines {
		i := hashLine(l) >> m.shift
		for m.tab[i] != 0 {
			i = (i + 1) & mask
		}
		m.tab[i] = uint64(l) + 1
		m.vals[i] = oldVals[m.slots[j]]
		m.slots[j] = uint32(i)
	}
}
