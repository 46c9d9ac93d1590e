package core

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
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

// TestSlackFollowsWriteSet is the SI-TM twin of the baselines' slack
// tests. SI-TM publishes CommitOverhead + L1Latency from Begin through
// its writes, zero inside the writer commit, and the read-phase value
// again once the transaction finishes, by commit or by abort. While
// promised reads are outstanding it is that value plus L1Latency, the
// smallest read charge, per remaining read. A tracer turns batching, and
// with it promises, off; so does SSI-TM, whose reads touch shared reader
// tables. No peer dooms an SI-TM reader, so nothing revokes a promise.
func TestSlackFollowsWriteSet(t *testing.T) {
	for _, c := range []struct {
		name            string
		serial, traced  bool
		honoursPromises bool
	}{
		{"SI-TM", false, false, true},
		{"SI-TM traced", false, true, false},
		{"SSI-TM", true, false, false},
	} {
		cfg := DefaultConfig()
		cfg.Serializable = c.serial
		read, charge := cfg.CommitOverhead+cfg.Cache.L1Latency, cfg.Cache.L1Latency
		promised := func(n uint64) uint64 {
			if !c.honoursPromises {
				return read
			}
			return read + n*charge
		}
		e := New(cfg)
		if c.traced {
			e.SetTracer(nopTracer{})
		}
		single(t, e, func(th *sched.Thread) {
			at := func(when string, want uint64) {
				t.Helper()
				if got := th.Slack(); got != want {
					t.Errorf("%s, %s: slack %d, want %d", c.name, when, got, want)
				}
			}
			tx := e.Begin(th)
			at("at Begin", read)
			tx.PromiseReads(3)
			at("after promising three reads", promised(3))
			tx.Read(addr(1))
			at("after the first promised read", promised(2))
			tx.Read(addr(2))
			tx.Read(addr(3))
			at("after the last promised read", promised(0))
			tx.Write(addr(4), 1)
			at("after a write", read)
			if err := tx.Commit(); err != nil {
				t.Fatalf("%s: commit: %v", c.name, err)
			}
			at("after a commit that kept its promise", read)
			tx = e.Begin(th)
			tx.PromiseReads(1)
			tx.Read(addr(5))
			tx.Abort()
			at("after an abort that kept its promise", read)
		})
	}
}

// nopTracer observes nothing; installing it turns batching off.
type nopTracer struct{}

func (nopTracer) TxnBegin(uint64, int)              {}
func (nopTracer) TxnRead(uint64, mem.Addr, string)  {}
func (nopTracer) TxnWrite(uint64, mem.Addr, string) {}
func (nopTracer) TxnCommit(uint64)                  {}
func (nopTracer) TxnAbort(uint64)                   {}
