// Package enginesets is an enginelint fixture: an engine-defining package
// whose access sets must use internal/aset. mem.Line-keyed maps are
// flagged everywhere.
package enginesets

import (
	"mem"
	"tm"
)

// Engine implements tm.Engine, which puts this package under the
// access-set rule.
type Engine struct {
	// readers is a mem.Line-keyed map in the fast path: flagged.
	readers map[mem.Line]int // want "mem.Line-keyed map in engine package"

	// lastTxn is keyed by thread ID, not by line: allowed.
	lastTxn map[int]*Engine
}

func (e *Engine) Name() string { return "fixture" }
func (e *Engine) Begin() int   { return 0 }

var _ tm.Engine = (*Engine)(nil)

type txn struct {
	writeSet map[mem.Line]struct{} // want "mem.Line-keyed map in engine package"
	// values keyed by address strings or plain integers are allowed.
	promoted map[string]bool
}

func scratch() {
	m := make(map[mem.Line]uint64) // want "mem.Line-keyed map in engine package"
	_ = m
}
