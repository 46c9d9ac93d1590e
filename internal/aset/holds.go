package aset

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// ReadHolds tracks which live transactions hold each line in shared mode,
// the way an HTM keeps per-line read bits in its cache: every live
// transaction owns a slot, and each line carries a bitmap over slots. A
// read sets the reader's bit; a conflicting writer finds the readers it
// must doom by scanning the line's set bits. A finishing transaction
// clears its own bits, so every set bit belongs to a live transaction and
// no liveness check is needed.
//
// Slot i lives in bit i%64 of word i/64 of a line's bitmap. Word k of
// every line is kept in its own paged table, so a new word is added
// without moving any existing bit, and readers with slots below 64 — all
// of them at up to 64 live transactions — touch a single table. The
// tracking is exact for any number of live transactions.
//
// The zero value is empty and ready to use. T is the engine's
// transaction type; its zero value marks a free slot.
type ReadHolds[T comparable] struct {
	// owners maps each taken slot to its transaction.
	owners []T
	// taken is the slot allocation bitmap: bit i of word i/64 is set
	// while slot i is owned.
	taken []uint64
	// words[k] holds bits 64k..64k+63 of every line's bitmap.
	words []mem.Paged[uint64]
	ref   bool
}

// SetReference backs every bitmap table with the retained dense mem
// store (see mem.Paged.SetReference). It must be called before the first
// Take.
func (h *ReadHolds[T]) SetReference() { h.ref = true }

// Take assigns tx the lowest free slot and returns it.
func (h *ReadHolds[T]) Take(tx T) int {
	k := 0
	for k < len(h.taken) && h.taken[k] == ^uint64(0) {
		k++
	}
	if k == len(h.taken) {
		h.taken = append(h.taken, 0)
	}
	slot := k<<6 | bits.TrailingZeros64(^h.taken[k])
	h.taken[k] |= 1 << uint(slot&63)
	for slot >= len(h.owners) {
		var zero T
		h.owners = append(h.owners, zero)
	}
	h.owners[slot] = tx
	for k >= len(h.words) {
		h.words = append(h.words, mem.Paged[uint64]{})
		if h.ref {
			h.words[len(h.words)-1].SetReference()
		}
	}
	return slot
}

// Release clears slot's bit on every line in lines — which must include
// every line the slot's owner added — and frees the slot.
func (h *ReadHolds[T]) Release(slot int, lines []mem.Line) {
	w := &h.words[slot>>6]
	bit := uint64(1) << uint(slot&63)
	for _, l := range lines {
		*w.Slot(uint64(l)) &^= bit
	}
	var zero T
	h.owners[slot] = zero
	h.taken[slot>>6] &^= bit
}

// Add sets slot's bit on line l and reports whether it was clear, i.e.
// whether this is the slot's first read of l.
func (h *ReadHolds[T]) Add(slot int, l mem.Line) bool {
	p := h.words[slot>>6].Slot(uint64(l))
	bit := uint64(1) << uint(slot&63)
	if *p&bit != 0 {
		return false
	}
	*p |= bit
	return true
}

// Has reports whether slot holds line l.
func (h *ReadHolds[T]) Has(slot int, l mem.Line) bool {
	return h.words[slot>>6].Load(uint64(l))&(1<<uint(slot&63)) != 0
}

// Words returns the number of bitmap words per line: every taken slot is
// below 64*Words().
func (h *ReadHolds[T]) Words() int { return len(h.words) }

// Word returns word k of line l's bitmap: bit j set means slot 64k+j
// holds the line.
func (h *ReadHolds[T]) Word(k int, l mem.Line) uint64 { return h.words[k].Load(uint64(l)) }

// Owner returns the transaction that owns a taken slot.
func (h *ReadHolds[T]) Owner(slot int) T { return h.owners[slot] }

// Audit reports the first line bit or slot still held: at quiescence,
// when every transaction has finished, there must be none.
func (h *ReadHolds[T]) Audit() error {
	for k, w := range h.taken {
		if w != 0 {
			return fmt.Errorf("slot %d still taken", k<<6|bits.TrailingZeros64(w))
		}
	}
	var err error
	for k := range h.words {
		h.words[k].Range(func(i uint64, v *uint64) {
			if err == nil && *v != 0 {
				err = fmt.Errorf("line %d still held by slot %d", i, k<<6|bits.TrailingZeros64(*v))
			}
		})
	}
	return err
}
