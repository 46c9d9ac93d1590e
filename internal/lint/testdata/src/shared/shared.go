// Package shared is a yieldlint fixture standing in for internal/eager: it
// defines no tm.Engine but imports the scheduler, and its exported helpers
// are called from engines in other packages, so each must charge in its
// own body.
package shared

import (
	"mem"
	"sched"
)

type Base struct{ words mem.Dense[uint64] }

func (b *Base) Store(i, v uint64) { b.words.Store(i, v) } // want `Store accesses simulated shared memory \(mem\.Store\).*exported entry points must charge in their own body`

func (b *Base) WriteBack(t *sched.Thread, i, v uint64) { t.Tick(1); b.words.Store(i, v) }
