package core

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/sched"
	"repro/internal/tm"
)

// TestBatchedPrivateHitScanMatchesPerEvent pins horizon batching of
// private L2 hits. Readers scan 1024 padded lines, twice L1's 512 and
// well inside L2's 4096, so LRU streaming leaves no way-predicted L1 hit:
// after the first pass a scan read misses L1 and, unless a commit
// invalidated the line, hits L2. One
// writer keeps committing fresh lines of the region, so the scans also
// meet commit invalidations of their private caches and new versions.
// The batched run must observe exactly what the per-event run observes —
// per-thread cycles, commits and aborts, engine and cache statistics —
// and must actually batch, which only private-hit certification allows.
func TestBatchedPrivateHitScanMatchesPerEvent(t *testing.T) {
	const lines, scans = 1024, 3
	type thread struct{ cycles, commits, aborts uint64 }
	type result struct {
		threads []thread
		engine  tm.Stats
		caches  cache.Stats
	}
	run := func(threads int, perEvent bool) (result, sched.Stats) {
		e := New(DefaultConfig())
		s := sched.New(threads, 1)
		s.SetPerEvent(perEvent)
		res := result{threads: make([]thread, threads)}
		s.Run(func(th *sched.Thread) {
			r := &res.threads[th.ID()]
			id := th.ID()
			n := scans // reader: one scan per transaction
			if id == 0 {
				n = scans * lines / 8 // writer: eight fresh lines per transaction
			}
			for i := 0; i < n; i++ {
				attempts := 0
				err := tm.Atomic(e, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
					attempts++
					if id == 0 {
						for k := 0; k < 8; k++ {
							tx.Write(addr(1+(8*i+k)%lines), uint64(i))
						}
						return nil
					}
					for k := 0; k < lines; k++ {
						tx.Read(addr(1 + (k+id*lines/threads)%lines))
					}
					return nil
				})
				if err != nil {
					t.Errorf("thread %d: %v", id, err)
				}
				r.commits++
				r.aborts += uint64(attempts - 1)
			}
			r.cycles = th.Cycles()
		})
		res.engine = *e.Stats()
		res.caches = e.CacheStats()
		return res, s.Stats()
	}
	for _, threads := range []int{4, 8} {
		batched, bst := run(threads, false)
		perEvent, pst := run(threads, true)
		if fmt.Sprint(batched) != fmt.Sprint(perEvent) {
			t.Errorf("%d threads: batched %+v\nper-event %+v", threads, batched, perEvent)
		}
		if bst.BatchedEvents == 0 {
			t.Errorf("%d threads: no batched events (%+v): private L2 hits were not certified", threads, bst)
		}
		if pst.BatchedEvents != 0 {
			t.Errorf("%d threads: per-event run batched %d events", threads, pst.BatchedEvents)
		}
	}
}
