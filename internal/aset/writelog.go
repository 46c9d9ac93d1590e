package aset

import "repro/internal/mem"

// LineWords buffers a transaction's stores to one cache line: a mask of
// written words plus the buffered values. It is the per-line unit of
// every engine's speculative write state.
type LineWords struct {
	Mask  uint8
	Words [mem.WordsPerLine]uint64
}

// WriteLog is a transaction's speculative write state: a LineMap from
// written lines to their buffered words. It replaces both the engines'
// per-word write logs (map[mem.Addr]uint64) and their line-granularity
// write sets (map[mem.Line]struct{}): line membership, first-write order
// and the buffered words all live in one structure, so the per-store cost
// is a single probe. The zero value is an empty log.
type WriteLog struct {
	m LineMap[LineWords]
}

// SetReference switches the empty log to LineMap's reference mode.
func (w *WriteLog) SetReference() { w.m.SetReference() }

// Len returns the number of written lines.
func (w *WriteLog) Len() int { return w.m.Len() }

// Lines returns the written lines in first-write order (shared slice;
// callers must not modify it, and Reset invalidates it).
func (w *WriteLog) Lines() []mem.Line { return w.m.Lines() }

// At returns the i-th written line and its buffered words without
// probing.
func (w *WriteLog) At(i int) (mem.Line, *LineWords) { return w.m.At(i) }

// Has reports whether the transaction wrote line l.
func (w *WriteLog) Has(l mem.Line) bool { return w.m.Has(l) }

// Line returns the buffered words of line l, or (nil, false) when the
// transaction never wrote it.
func (w *WriteLog) Line(l mem.Line) (*LineWords, bool) { return w.m.Get(l) }

// Store buffers a word store and reports whether it was the first store
// to its line.
func (w *WriteLog) Store(a mem.Addr, v uint64) bool {
	e, first := w.m.Put(mem.LineOf(a))
	i := mem.WordOf(a)
	e.Mask |= 1 << i
	e.Words[i] = v
	return first
}

// Load returns the buffered value of address a, if the transaction wrote
// that exact word. The signature rejects the common "line not in my write
// set" case with a single AND.
func (w *WriteLog) Load(a mem.Addr) (uint64, bool) {
	e, ok := w.m.Get(mem.LineOf(a))
	if !ok {
		return 0, false
	}
	i := mem.WordOf(a)
	if e.Mask&(1<<i) == 0 {
		return 0, false
	}
	return e.Words[i], true
}

// Reset discards the log in O(touched lines), keeping capacity.
func (w *WriteLog) Reset() { w.m.Reset() }
