// Package mem is a lint fixture standing in for repro/internal/mem: the
// enginelint access-set rule recognises the Line type by its name in a
// package whose import path ends in "mem".
package mem

// Line is a cache-line number.
type Line uint64

// Addr is a byte address.
type Addr uint64

// Dense is a flat simulated-storage table standing in for mem.Dense:
// yieldlint treats its accessors as shared-memory touches.
type Dense[T any] struct {
	v []T
}

// Load reads slot i.
func (d *Dense[T]) Load(i uint64) T {
	var zero T
	if i >= uint64(len(d.v)) {
		return zero
	}
	return d.v[i]
}

// Store writes slot i.
func (d *Dense[T]) Store(i uint64, x T) {
	for i >= uint64(len(d.v)) {
		d.v = append(d.v, x)
	}
	d.v[i] = x
}

// Paged is a sparse simulated-storage table standing in for mem.Paged:
// yieldlint treats its accessors — Scan included — as shared-memory
// touches.
type Paged[T any] struct {
	v map[uint64]T
}

// Load reads slot i.
func (p *Paged[T]) Load(i uint64) T { return p.v[i] }

// Slot returns a settable slot (the fixture fakes it with a local).
func (p *Paged[T]) Slot(i uint64) *T {
	if p.v == nil {
		p.v = make(map[uint64]T)
	}
	x := p.v[i]
	return &x
}

// Scan visits the occupied slots in [lo, hi), one run each: a bulk
// shared-memory touch.
func (p *Paged[T]) Scan(lo, hi uint64, f func(first uint64, run []T)) {
	for i := range p.v {
		if lo <= i && i < hi {
			f(i, []T{p.v[i]})
		}
	}
}
