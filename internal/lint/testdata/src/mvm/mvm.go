// Package mvm is a yieldlint fixture standing in for repro/internal/mvm:
// the analyzer recognises its access methods by name in a package whose
// import path ends in "mvm".
package mvm

import "mem"

// Memory is the multiversioned memory stand-in.
type Memory struct {
	words map[mem.Addr]uint64
}

// ReadWord is a simulated shared-memory access.
func (m *Memory) ReadWord(a mem.Addr, at uint64) (uint64, bool) {
	v, ok := m.words[a]
	return v, ok
}

// Install is a simulated shared-memory access.
func (m *Memory) Install(a mem.Addr, at uint64, v uint64) {
	if m.words == nil {
		m.words = map[mem.Addr]uint64{}
	}
	m.words[a] = v
}

// NonTxScan is a simulated shared-memory access: a ranged walk of the
// newest versions.
func (m *Memory) NonTxScan(lo, hi mem.Addr, f func(a mem.Addr, v uint64)) {
	for a := lo; a < hi; a += 8 {
		if v, ok := m.words[a]; ok {
			f(a, v)
		}
	}
}

// Stats is metadata, not an access: never a touch.
func (m *Memory) Stats() int { return len(m.words) }
