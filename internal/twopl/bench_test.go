package twopl

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/tm"
)

// The per-transaction hot paths — Read, Write and Commit — run once per
// simulated access and once per transaction across every figure sweep, so
// they must be allocation-free in steady state: reader bits live in
// paged per-line bitmaps, the read lines and write log keep their
// capacity when cleanup clears them, and transaction objects recycle per
// thread. "hit" is the repeat-access fast path; "conflict" keeps a
// concurrent transaction holding the benchmark's lines, so every
// operation runs the requester-wins machinery — the writer probe and
// doom on reads, the reader-bitmap scan and doom on writes.
// TestTxnHotPathsAllocFree asserts 0 allocs/op for all of them; the CI
// bench smoke and sitm-bench -json report them.

const benchTxnOps = 256

func benchLineAddr(i int) mem.Addr { return mem.Addr((1 + i) * mem.LineBytes) }

func runSingle(body func(th *sched.Thread)) {
	s := sched.New(1, 1)
	s.Run(body)
}

// runWithBystander drives body on thread 0 while thread 1 holds one
// transaction open across the whole timed region; the bystander's reads
// or writes keep the benchmark's lines contended. Requester-wins dooms
// the bystander on first contact — the flag set is idempotent, so the
// scan work repeats on every operation without ever unwinding it. The
// bystander aborts once thread 0 finishes.
func runWithBystander(e *Engine, setup func(tm.Txn), body func(th *sched.Thread)) {
	s := sched.New(2, 1)
	s.Run(func(th *sched.Thread) {
		if th.ID() == 1 {
			by := e.Begin(th)
			setup(by)
			th.Tick(1 << 62)
			by.Abort()
			return
		}
		// Start past the bystander's setup so it begins first.
		th.Tick(1 << 16)
		body(th)
	})
}

// runBatching drives body on thread 0 inside a batched quantum: thread 1
// publishes an unbounded slack and, whenever it runs, parks one cycle
// past thread 0, so thread 0's batchable charges overshoot its inline
// bound but stay below the horizon and return inline. Commits and
// Begins still yield once each.
func runBatching(b *testing.B, body func(th *sched.Thread)) {
	s := sched.New(2, 1)
	done := false
	s.Run(func(th *sched.Thread) {
		if th.ID() == 1 {
			th.SetSlack(1 << 60)
			for lead := s.Thread(0); !done; {
				th.Tick(lead.Cycles() + 1 - th.Cycles())
			}
			return
		}
		body(th)
		done = true
	})
	if s.Stats().BatchedEvents == 0 {
		b.Fatalf("no batched events: %+v", s.Stats())
	}
}

func benchReads(b *testing.B, e *Engine, th *sched.Thread, spread int) {
	tx := e.Begin(th)
	for i := 0; i < spread; i++ {
		_ = tx.Read(benchLineAddr(i))
	}
	_ = tx.Commit()
	b.ReportAllocs()
	b.ResetTimer()
	tx = e.Begin(th)
	n := 0
	for i := 0; i < b.N; i++ {
		_ = tx.Read(benchLineAddr(i % spread))
		if n++; n == benchTxnOps {
			_ = tx.Commit()
			tx = e.Begin(th)
			n = 0
		}
	}
	b.StopTimer()
	_ = tx.Commit()
}

func benchWrites(b *testing.B, e *Engine, th *sched.Thread, spread int) {
	tx := e.Begin(th)
	for i := 0; i < spread; i++ {
		tx.Write(benchLineAddr(i), uint64(i))
	}
	_ = tx.Commit()
	b.ReportAllocs()
	b.ResetTimer()
	tx = e.Begin(th)
	n := 0
	for i := 0; i < b.N; i++ {
		tx.Write(benchLineAddr(i%spread), uint64(i))
		if n++; n == benchTxnOps {
			_ = tx.Commit()
			tx = e.Begin(th)
			n = 0
		}
	}
	b.StopTimer()
	_ = tx.Commit()
}

func benchCommits(b *testing.B, e *Engine, th *sched.Thread, lines int) {
	commitOne := func(i int) {
		tx := e.Begin(th)
		for l := 0; l < lines; l++ {
			tx.Write(benchLineAddr(l), uint64(i))
		}
		if err := tx.Commit(); err != nil {
			b.Fatalf("commit: %v", err)
		}
	}
	commitOne(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commitOne(i)
	}
	b.StopTimer()
}

// readBystander holds the benchmark's lines in shared mode.
func readBystander(spread int) func(tm.Txn) {
	return func(by tm.Txn) {
		for i := 0; i < spread; i++ {
			_ = by.Read(benchLineAddr(i))
		}
	}
}

// writeBystander holds the benchmark's lines in exclusive mode.
func writeBystander(spread int) func(tm.Txn) {
	return func(by tm.Txn) {
		for i := 0; i < spread; i++ {
			by.Write(benchLineAddr(i), uint64(i))
		}
	}
}

func BenchmarkTxnRead(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		e := New(DefaultConfig())
		runSingle(func(th *sched.Thread) { benchReads(b, e, th, 8) })
	})
	// Private hits past the inline bound, below the horizon: the
	// batched charge path.
	b.Run("batched", func(b *testing.B) {
		e := New(DefaultConfig())
		runBatching(b, func(th *sched.Thread) { benchReads(b, e, th, 8) })
	})
	// Every read hits a line a concurrent writer holds: the live-writer
	// probe validates the hold and dooms the holder (idempotently).
	b.Run("conflict", func(b *testing.B) {
		e := New(DefaultConfig())
		runWithBystander(e, writeBystander(8), func(th *sched.Thread) {
			benchReads(b, e, th, 8)
		})
	})
}

func BenchmarkTxnWrite(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		e := New(DefaultConfig())
		runSingle(func(th *sched.Thread) { benchWrites(b, e, th, 8) })
	})
	// Every write hits a line a concurrent reader holds: the reader
	// records are scanned and the reader doomed (idempotently).
	b.Run("conflict", func(b *testing.B) {
		e := New(DefaultConfig())
		runWithBystander(e, readBystander(8), func(th *sched.Thread) {
			benchWrites(b, e, th, 8)
		})
	})
}

func BenchmarkCommit(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		e := New(DefaultConfig())
		runSingle(func(th *sched.Thread) { benchCommits(b, e, th, 4) })
	})
	b.Run("conflict", func(b *testing.B) {
		e := New(DefaultConfig())
		runWithBystander(e, readBystander(4), func(th *sched.Thread) {
			benchCommits(b, e, th, 4)
		})
	})
}

// TestTxnHotPathsAllocFree asserts the transaction hot paths never
// allocate in steady state, in every regime.
func TestTxnHotPathsAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full benchmarks")
	}
	leaves := []struct {
		name string
		run  func(b *testing.B)
	}{
		{"TxnRead/hit", func(b *testing.B) {
			e := New(DefaultConfig())
			runSingle(func(th *sched.Thread) { benchReads(b, e, th, 8) })
		}},
		{"TxnRead/batched", func(b *testing.B) {
			e := New(DefaultConfig())
			runBatching(b, func(th *sched.Thread) { benchReads(b, e, th, 8) })
		}},
		{"TxnRead/conflict", func(b *testing.B) {
			e := New(DefaultConfig())
			runWithBystander(e, writeBystander(8), func(th *sched.Thread) { benchReads(b, e, th, 8) })
		}},
		{"TxnWrite/hit", func(b *testing.B) {
			e := New(DefaultConfig())
			runSingle(func(th *sched.Thread) { benchWrites(b, e, th, 8) })
		}},
		{"TxnWrite/conflict", func(b *testing.B) {
			e := New(DefaultConfig())
			runWithBystander(e, readBystander(8), func(th *sched.Thread) { benchWrites(b, e, th, 8) })
		}},
		{"Commit/hit", func(b *testing.B) {
			e := New(DefaultConfig())
			runSingle(func(th *sched.Thread) { benchCommits(b, e, th, 4) })
		}},
		{"Commit/conflict", func(b *testing.B) {
			e := New(DefaultConfig())
			runWithBystander(e, readBystander(4), func(th *sched.Thread) { benchCommits(b, e, th, 4) })
		}},
	}
	for _, leaf := range leaves {
		if r := testing.Benchmark(leaf.run); r.AllocsPerOp() != 0 {
			t.Errorf("%s: %d allocs/op, want 0", leaf.name, r.AllocsPerOp())
		}
	}
}
