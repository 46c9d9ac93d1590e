package core

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/mvm"
	"repro/internal/sched"
	"repro/internal/tm"
)

// single runs body on a one-thread machine. Multiple transactions may be
// open at once on the single logical thread, which lets tests script exact
// interleavings.
func single(t *testing.T, e tm.Engine, body func(th *sched.Thread)) {
	t.Helper()
	s := sched.New(1, 1)
	s.Run(body)
}

func addr(i int) mem.Addr { return mem.Addr(i * mem.LineBytes) } // one line apart

func TestReadYourOwnWrites(t *testing.T) {
	e := New(DefaultConfig())
	single(t, e, func(th *sched.Thread) {
		tx := e.Begin(th)
		tx.Write(addr(1), 42)
		if v := tx.Read(addr(1)); v != 42 {
			t.Errorf("read own write = %d, want 42", v)
		}
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
	})
	if v := e.NonTxRead(addr(1)); v != 42 {
		t.Fatalf("committed value = %d, want 42", v)
	}
}

func TestSnapshotIgnoresLaterCommits(t *testing.T) {
	e := New(DefaultConfig())
	e.NonTxWrite(addr(1), 10)
	single(t, e, func(th *sched.Thread) {
		reader := e.Begin(th)
		if v := reader.Read(addr(1)); v != 10 {
			t.Errorf("initial read = %d, want 10", v)
		}
		writer := e.Begin(th)
		writer.Write(addr(1), 99)
		if err := writer.Commit(); err != nil {
			t.Fatalf("writer commit: %v", err)
		}
		// The reader's snapshot must still be 10 (§4: reads always
		// return consistent data from the transaction's snapshot).
		if v := reader.Read(addr(1)); v != 10 {
			t.Errorf("snapshot read after concurrent commit = %d, want 10", v)
		}
		if err := reader.Commit(); err != nil {
			t.Errorf("read-only reader must commit: %v", err)
		}
	})
}

func TestWriteWriteConflictAborts(t *testing.T) {
	e := New(DefaultConfig())
	single(t, e, func(th *sched.Thread) {
		t1 := e.Begin(th)
		t2 := e.Begin(th)
		t1.Write(addr(1), 1)
		t2.Write(addr(1), 2)
		if err := t1.Commit(); err != nil {
			t.Fatalf("first committer must win: %v", err)
		}
		err := t2.Commit()
		ab, ok := err.(*tm.AbortError)
		if !ok || ab.Kind != tm.AbortWriteWrite {
			t.Fatalf("second committer err = %v, want write-write abort", err)
		}
	})
	if e.Stats().Aborts[tm.AbortWriteWrite] != 1 {
		t.Fatalf("stats: %+v", e.Stats())
	}
	if v := e.NonTxRead(addr(1)); v != 1 {
		t.Fatalf("value = %d, want 1 (loser rolled back)", v)
	}
}

func TestReadWriteConflictDoesNotAbort(t *testing.T) {
	// The defining property of SI-TM: a transaction that read data
	// later overwritten by a concurrent committer still commits, as
	// long as its own write set is conflict-free.
	e := New(DefaultConfig())
	e.NonTxWrite(addr(1), 5)
	single(t, e, func(th *sched.Thread) {
		t1 := e.Begin(th)
		_ = t1.Read(addr(1))
		t1.Write(addr(2), 7) // disjoint write set

		t2 := e.Begin(th)
		t2.Write(addr(1), 6)
		if err := t2.Commit(); err != nil {
			t.Fatalf("t2 commit: %v", err)
		}
		if err := t1.Commit(); err != nil {
			t.Fatalf("t1 must commit despite the read-write conflict: %v", err)
		}
	})
	if e.Stats().TotalAborts() != 0 {
		t.Fatalf("aborts = %d, want 0", e.Stats().TotalAborts())
	}
}

// TestFigure2Schedule replays the paper's Figure 2 under SI-TM: TX0
// commits; TX1 (pure reader of A) commits; TX2 (reads B and A, writes C)
// commits; only TX3 aborts, because it writes A which TX0 also wrote.
func TestFigure2Schedule(t *testing.T) {
	e := New(DefaultConfig())
	A, B, C := addr(1), addr(2), addr(3)
	single(t, e, func(th *sched.Thread) {
		tx0 := e.Begin(th)
		tx1 := e.Begin(th)
		tx2 := e.Begin(th)
		tx3 := e.Begin(th)

		_ = tx0.Read(A)
		_ = tx3.Read(A)
		tx0.Write(A, 1)
		_ = tx2.Read(B)
		tx2.Write(C, 1)
		tx0.Write(B, 1)
		if err := tx0.Commit(); err != nil {
			t.Fatalf("TX0: %v", err)
		}
		_ = tx1.Read(A)
		tx3.Write(A, 2)
		if err := tx1.Commit(); err != nil {
			t.Errorf("TX1 must commit under SI: %v", err)
		}
		_ = tx2.Read(A)
		if err := tx2.Commit(); err != nil {
			t.Errorf("TX2 must commit under SI: %v", err)
		}
		err := tx3.Commit()
		ab, ok := err.(*tm.AbortError)
		if !ok || ab.Kind != tm.AbortWriteWrite {
			t.Errorf("TX3 err = %v, want write-write abort", err)
		}
	})
}

func TestReadOnlyCommitsAreFree(t *testing.T) {
	e := New(DefaultConfig())
	e.NonTxWrite(addr(1), 1)
	single(t, e, func(th *sched.Thread) {
		tx := e.Begin(th)
		_ = tx.Read(addr(1))
		before := th.Cycles()
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
		if got := th.Cycles() - before; got != 0 {
			t.Errorf("read-only commit cost %d cycles, want 0 (§4.2)", got)
		}
	})
	if e.Stats().ReadOnly != 1 {
		t.Fatalf("read-only commits = %d, want 1", e.Stats().ReadOnly)
	}
	if e.Clock().InFlight() != 0 {
		t.Fatal("read-only commit must not reserve an end timestamp")
	}
}

func TestWriteSkewIsPermittedUnderSI(t *testing.T) {
	// Listing 1's anomaly: both accounts start at 60, invariant
	// checking+saving > 50 holds; two concurrent withdrawals of 100
	// each read both accounts and write disjoint ones — SI commits
	// both and the invariant breaks. (The write-skew tool and SSI-TM
	// exist to catch exactly this.)
	e := New(DefaultConfig())
	checking, saving := addr(1), addr(2)
	e.NonTxWrite(checking, 60)
	e.NonTxWrite(saving, 60)
	single(t, e, func(th *sched.Thread) {
		t1 := e.Begin(th)
		t2 := e.Begin(th)
		if t1.Read(checking)+t1.Read(saving) > 100 {
			t1.Write(checking, t1.Read(checking)-100)
		}
		if t2.Read(checking)+t2.Read(saving) > 100 {
			t2.Write(saving, t2.Read(saving)-100)
		}
		if err := t1.Commit(); err != nil {
			t.Fatalf("t1: %v", err)
		}
		if err := t2.Commit(); err != nil {
			t.Fatalf("t2: %v (SI permits write skew)", err)
		}
	})
	sum := int64(e.NonTxRead(checking)) + int64(e.NonTxRead(saving))
	if sum != -80 {
		t.Fatalf("sum = %d, want -80 (both withdrawals applied)", sum)
	}
}

func TestSSIPreventsWriteSkew(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Serializable = true
	e := New(cfg)
	checking, saving := addr(1), addr(2)
	e.NonTxWrite(checking, 60)
	e.NonTxWrite(saving, 60)
	aborted := 0
	single(t, e, func(th *sched.Thread) {
		t1 := e.Begin(th)
		t2 := e.Begin(th)
		_ = t1.Read(checking)
		_ = t1.Read(saving)
		t1.Write(checking, 0)
		_ = t2.Read(checking)
		_ = t2.Read(saving)
		t2.Write(saving, 0)
		if err := t1.Commit(); err != nil {
			aborted++
		}
		if err := t2.Commit(); err != nil {
			aborted++
		}
	})
	if aborted == 0 {
		t.Fatal("SSI-TM must abort at least one transaction of a write skew")
	}
}

func TestPromotedReadForcesAbort(t *testing.T) {
	e := New(DefaultConfig())
	e.Promote("hot")
	e.NonTxWrite(addr(1), 1)
	single(t, e, func(th *sched.Thread) {
		t1 := e.Begin(th)
		_ = t1.Site("hot").Read(addr(1)) // promoted
		t1.Site("").Write(addr(2), 5)

		t2 := e.Begin(th)
		t2.Write(addr(1), 2)
		if err := t2.Commit(); err != nil {
			t.Fatalf("t2: %v", err)
		}
		err := t1.Commit()
		ab, ok := err.(*tm.AbortError)
		if !ok || ab.Kind != tm.AbortSkew {
			t.Fatalf("t1 err = %v, want skew abort via promoted read", err)
		}
	})
	// The promoted read must not have created a data version.
	if v := e.NonTxRead(addr(1)); v != 2 {
		t.Fatalf("value = %d, want 2", v)
	}
}

// TestConcurrentPromotedCommitsRevalidate runs Listing 1's withdrawals
// with both balance reads promoted on two threads whose commits overlap:
// each commit's early pass over its promoted lines runs before the other
// commit installs, so only the pass after the installs can see the
// other's version. At least one withdrawal must abort.
func TestConcurrentPromotedCommitsRevalidate(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		e := New(DefaultConfig())
		e.Promote("balance")
		checking, saving := addr(1), addr(2)
		e.NonTxWrite(checking, 60)
		e.NonTxWrite(saving, 60)
		var errs [2]error
		sched.New(2, seed).Run(func(th *sched.Thread) {
			errs[th.ID()] = tm.RunOnce(e, th, func(tx tm.Txn) error {
				c, s := tx.Site("balance").Read(checking), tx.Read(saving)
				if c+s > 100 {
					tx.Site("").Write([]mem.Addr{checking, saving}[th.ID()], 0)
				}
				return nil
			})
		})
		if errs[0] == nil && errs[1] == nil {
			t.Errorf("seed %d: both withdrawals committed despite promoted reads", seed)
		}
	}
}

func TestWordGranularityDismissesFalseSharing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WordGranularity = true
	e := New(cfg)
	a0 := addr(1) // word 0 of the line
	a1 := a0 + 8  // word 1 of the same line
	single(t, e, func(th *sched.Thread) {
		t1 := e.Begin(th)
		t2 := e.Begin(th)
		t1.Write(a0, 1)
		t2.Write(a1, 2)
		if err := t1.Commit(); err != nil {
			t.Fatalf("t1: %v", err)
		}
		if err := t2.Commit(); err != nil {
			t.Fatalf("t2 must commit: different words, false sharing only: %v", err)
		}
	})
	if e.NonTxRead(a0) != 1 || e.NonTxRead(a1) != 2 {
		t.Fatalf("merged line lost a write: %d %d", e.NonTxRead(a0), e.NonTxRead(a1))
	}
}

func TestWordGranularityDismissesSilentStores(t *testing.T) {
	// A silent store writes the value the transaction read from its
	// snapshot: it has no effect and must neither conflict nor clobber
	// a concurrent writer's update.
	cfg := DefaultConfig()
	cfg.WordGranularity = true
	e := New(cfg)
	e.NonTxWrite(addr(1), 7)
	single(t, e, func(th *sched.Thread) {
		t1 := e.Begin(th)
		t2 := e.Begin(th)
		t1.Write(addr(1), 9) // real change
		t2.Write(addr(1), 7) // writes back its snapshot value: silent
		if err := t1.Commit(); err != nil {
			t.Fatalf("t1: %v", err)
		}
		if err := t2.Commit(); err != nil {
			t.Fatalf("t2 must commit (silent store): %v", err)
		}
	})
	if v := e.NonTxRead(addr(1)); v != 9 {
		t.Fatalf("value = %d, want 9 (silent store must not clobber)", v)
	}
}

func TestWordGranularitySameValueRMWStillConflicts(t *testing.T) {
	// Two increments that happen to write the same numeric value both
	// modified the word relative to their snapshots: that is a true
	// conflict, not a silent store — dismissing it would lose an
	// update.
	cfg := DefaultConfig()
	cfg.WordGranularity = true
	e := New(cfg)
	e.NonTxWrite(addr(1), 4)
	single(t, e, func(th *sched.Thread) {
		t1 := e.Begin(th)
		t2 := e.Begin(th)
		t1.Write(addr(1), t1.Read(addr(1))+1) // 5
		t2.Write(addr(1), t2.Read(addr(1))+1) // also 5
		if err := t1.Commit(); err != nil {
			t.Fatalf("t1: %v", err)
		}
		if err := t2.Commit(); err == nil {
			t.Fatal("same-value RMW pair must still conflict")
		}
	})
}

func TestWordGranularityKeepsTrueConflicts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WordGranularity = true
	e := New(cfg)
	single(t, e, func(th *sched.Thread) {
		t1 := e.Begin(th)
		t2 := e.Begin(th)
		t1.Write(addr(1), 1)
		t2.Write(addr(1), 2)
		if err := t1.Commit(); err != nil {
			t.Fatalf("t1: %v", err)
		}
		if err := t2.Commit(); err == nil {
			t.Fatal("same-word different-value conflict must abort")
		}
	})
}

func TestCapacityAbortOnFifthVersion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MVM.Coalesce = false
	e := New(cfg)
	single(t, e, func(th *sched.Thread) {
		var pins []tm.Txn
		for i := 0; i < 4; i++ {
			w := e.Begin(th)
			w.Write(addr(1), uint64(i))
			if err := w.Commit(); err != nil {
				t.Fatalf("writer %d: %v", i, err)
			}
			pin := e.Begin(th)
			_ = pin.Read(addr(1)) // pin the version
			pins = append(pins, pin)
		}
		w := e.Begin(th)
		w.Write(addr(1), 99)
		err := w.Commit()
		ab, ok := err.(*tm.AbortError)
		if !ok || ab.Kind != tm.AbortCapacity {
			t.Fatalf("fifth version err = %v, want capacity abort", err)
		}
		for _, p := range pins {
			if err := p.Commit(); err != nil {
				t.Fatalf("pin commit: %v", err)
			}
		}
	})
}

func TestDropOldestPolicyAbortsStaleReader(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MVM.Policy = mvm.DropOldest
	cfg.MVM.MaxVersions = 2
	cfg.MVM.Coalesce = false
	e := New(cfg)
	e.NonTxWrite(addr(1), 1)
	got := make(chan error, 1)
	single(t, e, func(th *sched.Thread) {
		old := e.Begin(th)
		var pins []tm.Txn
		for i := 0; i < 3; i++ {
			w := e.Begin(th)
			w.Write(addr(1), uint64(i+10))
			if err := w.Commit(); err != nil {
				t.Fatalf("writer %d: %v", i, err)
			}
			pin := e.Begin(th)
			_ = pin.Read(addr(2))
			pins = append(pins, pin)
		}
		err := tm.Atomic(e, th, tm.BackoffConfig{}, func(tx tm.Txn) error {
			return nil
		})
		_ = err
		func() {
			defer func() { recover() }() // the read aborts via signal
			_ = old.Read(addr(1))
			got <- nil
		}()
		select {
		case <-got:
			t.Error("stale read should have aborted")
		default:
		}
		for _, p := range pins {
			_ = p.Commit()
		}
	})
	if e.Stats().Aborts[tm.AbortCapacity] != 1 {
		t.Fatalf("capacity aborts = %d, want 1", e.Stats().Aborts[tm.AbortCapacity])
	}
}

func TestAtomicRetriesUntilCommit(t *testing.T) {
	e := New(DefaultConfig())
	s := sched.New(2, 3)
	counts := [2]int{}
	s.Run(func(th *sched.Thread) {
		for i := 0; i < 50; i++ {
			err := tm.Atomic(e, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
				v := tx.Read(addr(1))
				tx.Write(addr(1), v+1)
				return nil
			})
			if err != nil {
				t.Errorf("Atomic: %v", err)
			}
			counts[th.ID()]++
		}
	})
	if got := e.NonTxRead(addr(1)); got != 100 {
		t.Fatalf("counter = %d, want 100 (every increment applied exactly once)", got)
	}
	if e.Stats().Commits != 100 {
		t.Fatalf("commits = %d, want 100", e.Stats().Commits)
	}
}

func TestAtomicPropagatesWorkloadError(t *testing.T) {
	e := New(DefaultConfig())
	wantErr := tm.ErrRetry
	_ = wantErr
	single(t, e, func(th *sched.Thread) {
		calls := 0
		err := tm.Atomic(e, th, tm.BackoffConfig{}, func(tx tm.Txn) error {
			calls++
			if calls < 3 {
				return tm.ErrRetry
			}
			return nil
		})
		if err != nil || calls != 3 {
			t.Errorf("err=%v calls=%d, want nil/3", err, calls)
		}
	})
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		e := New(DefaultConfig())
		s := sched.New(4, 99)
		s.Run(func(th *sched.Thread) {
			for i := 0; i < 30; i++ {
				_ = tm.Atomic(e, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
					a := addr(1 + th.Rand().Intn(8))
					v := tx.Read(a)
					tx.Write(a, v+1)
					return nil
				})
			}
		})
		return e.Stats().Commits, e.Stats().TotalAborts(), s.Makespan()
	}
	c1, a1, m1 := run()
	c2, a2, m2 := run()
	if c1 != c2 || a1 != a2 || m1 != m2 {
		t.Fatalf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", c1, a1, m1, c2, a2, m2)
	}
}

func TestUnboundedTransactionSize(t *testing.T) {
	// §4.3: transactions exceed any cache capacity without aborting.
	e := New(DefaultConfig())
	const n = 4096 // 4096 lines = 256 KiB write set, past L1/L2
	single(t, e, func(th *sched.Thread) {
		tx := e.Begin(th)
		for i := 0; i < n; i++ {
			tx.Write(addr(i+1), uint64(i))
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("large transaction aborted: %v", err)
		}
	})
	if e.NonTxRead(addr(n)) != n-1 {
		t.Fatal("large write set not fully committed")
	}
}
