// Package cache is a yieldlint fixture standing in for repro/internal/cache:
// the analyzer recognises its access and publish methods by name in a
// package whose import path ends in "cache".
package cache

import "mem"

// Hierarchy is one core's private caches.
type Hierarchy struct {
	lines map[mem.Line]bool
}

// Access is a simulated shared-memory access.
func (h *Hierarchy) Access(line mem.Line) uint64 {
	h.lines[line] = true
	return 4
}

// AccessPrivate is an access too: a private hit refreshes this core's
// caches.
func (h *Hierarchy) AccessPrivate(line mem.Line) (uint64, bool) {
	return 4, h.lines[line]
}

// System is the machine's memory system.
type System struct {
	cores []*Hierarchy
}

// Publish invalidates a committed line in other cores' caches.
func (s *System) Publish(self int, line mem.Line) {
	for id, h := range s.cores {
		if id != self {
			delete(h.lines, line)
		}
	}
}
