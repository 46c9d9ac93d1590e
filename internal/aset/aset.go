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
//
// LineMap (and WriteLog through it) also has a reference mode, selected
// with SetReference like mem.Paged's: a Go map indexes the entries and no
// signature filters probes of a non-empty map. It is the differential oracle for the open
// addressing and the signature (tm.EngineOptions.ReferenceSets); both
// modes answer every call identically.
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

// LineMap is a map from cache lines to values of type T: a power-of-two
// open-addressing table with linear probing, a Bloom signature for O(1)
// miss rejection, and first-insertion iteration order. Values live in a
// slot-parallel slab, so entries are index-linked rather than
// pointer-allocated and a recycled transaction reuses the slab in place.
// LineMap[struct{}] is a set of lines. The zero value is an empty map.
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
	// ref indexes vals by line in the reference mode, nil otherwise.
	// There vals is in insertion order, tab stays empty (so Put always
	// sees a full table) and sig has every bit set while the map holds
	// entries (so Get's signature test passes and the map decides).
	ref map[mem.Line]uint32
}

// SetReference switches the empty map to the reference mode (see the
// package comment). It must be called before the first Put.
func (m *LineMap[T]) SetReference() {
	m.ref = make(map[mem.Line]uint32)
	m.sig = ^uint64(0)
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
	if m.ref != nil {
		return m.getRef(l)
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
		// The reference mode never allocates tab, so its Puts all take
		// this branch and the open-addressing path pays no mode test.
		if m.ref != nil {
			return m.putRef(l)
		}
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
	if m.ref != nil {
		// No table to clear: putRef reuses the slab and clears the index.
		m.slots = m.slots[:0]
	}
	var zero T
	for _, slot := range m.slots {
		m.tab[slot] = 0
		m.vals[slot] = zero
	}
	m.lines = m.lines[:0]
	m.slots = m.slots[:0]
	m.sig = 0
}

// getRef and putRef are the reference mode's Get and Put; entry i
// occupies slot i of vals. Reset leaves the index and the slab stale
// under a zero signature, so Get misses until the first Put, which
// clears the index and restores the signature; putRef zeroes each reused
// slot as it hands it out.
func (m *LineMap[T]) getRef(l mem.Line) (*T, bool) {
	if i, ok := m.ref[l]; ok {
		return &m.vals[i], true
	}
	return nil, false
}

func (m *LineMap[T]) putRef(l mem.Line) (*T, bool) {
	if len(m.lines) == 0 {
		clear(m.ref)
		m.sig = ^uint64(0)
	}
	if i, ok := m.ref[l]; ok {
		return &m.vals[i], false
	}
	i := uint32(len(m.lines))
	var zero T
	if int(i) < len(m.vals) {
		m.vals[i] = zero
	} else {
		m.vals = append(m.vals, zero)
	}
	m.ref[l] = i
	m.lines = append(m.lines, l)
	m.slots = append(m.slots, i)
	return &m.vals[i], true
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
