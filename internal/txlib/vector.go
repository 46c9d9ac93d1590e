package txlib

import (
	"repro/internal/mem"
	"repro/internal/tm"
)

// Vector is a fixed-size transactional array. Layout is selectable: Packed
// stores eight 64-bit elements per cache line — adjacent indices share a
// line and can false-share; Padded gives every element its own line, the
// layout the Array microbenchmark uses for conflict-free access to
// disjoint cells (§6.2).
type Vector struct {
	m      *Mem
	base   mem.Addr
	n      int
	padded bool
}

// Site labels for the write-skew tool.
const (
	SiteVectorRead  = "vector.read"
	SiteVectorWrite = "vector.write"
)

// NewVector creates a zeroed vector of n elements.
func NewVector(m *Mem, n int, padded bool) *Vector {
	v := &Vector{m: m, n: n, padded: padded}
	if padded {
		v.base = m.A.AllocLines(n)
	} else {
		v.base = m.A.AllocLines((n + mem.WordsPerLine - 1) / mem.WordsPerLine)
	}
	return v
}

// Len returns the element count.
func (v *Vector) Len() int { return v.n }

// Addr returns the address of element i, so kernels can mix vector data
// with raw transactional accesses.
func (v *Vector) Addr(i int) mem.Addr {
	if i < 0 || i >= v.n {
		panic("txlib: vector index out of range")
	}
	if v.padded {
		return v.base + mem.Addr(i*mem.LineBytes)
	}
	return v.base + mem.Addr(i*mem.WordBytes)
}

// Get reads element i.
func (v *Vector) Get(tx tm.Txn, i int) uint64 {
	tx.Site(SiteVectorRead)
	return tx.Read(v.Addr(i))
}

// Set writes element i.
func (v *Vector) Set(tx tm.Txn, i int, val uint64) {
	tx.Site(SiteVectorWrite)
	tx.Write(v.Addr(i), val)
}

// Add increments element i by delta and returns the new value.
func (v *Vector) Add(tx tm.Txn, i int, delta uint64) uint64 {
	tx.Site(SiteVectorRead)
	nv := tx.Read(v.Addr(i)) + delta
	tx.Site(SiteVectorWrite)
	tx.Write(v.Addr(i), nv)
	return nv
}

// Sum reads every element (the long-running read-only iteration of the
// Array microbenchmark). It promises its reads up front, so peers batch
// past the scan instead of switching to it on every read.
func (v *Vector) Sum(tx tm.Txn) uint64 {
	tx.Site(SiteVectorRead)
	tx.PromiseReads(v.n)
	var s uint64
	for i := 0; i < v.n; i++ {
		s += tx.Read(v.Addr(i))
	}
	return s
}

// SeedNonTx fills the vector without a transaction.
func (v *Vector) SeedNonTx(vals []uint64) {
	for i, val := range vals {
		if i >= v.n {
			break
		}
		v.m.E.NonTxWrite(v.Addr(i), val)
	}
}

// SumNonTx sums outside any transaction (post-run verification).
func (v *Vector) SumNonTx() uint64 {
	var s uint64
	for i := 0; i < v.n; i++ {
		s += v.m.E.NonTxRead(v.Addr(i))
	}
	return s
}
