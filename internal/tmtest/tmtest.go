// Package tmtest provides a conformance suite that every transactional
// memory engine in this repository must pass: atomicity, consistency of
// snapshots or doom-checking, no lost updates, read-your-own-writes,
// explicit aborts, and determinism. It also holds the engine-generic
// hot-path allocation and interaction-slack contracts (hotpath.go,
// slack.go), which build engines through the tm registry. The engine
// packages invoke them from their own tests so a behavioural regression
// in any engine fails loudly at the engine that caused it; the package's
// own tests sweep the conformance suite over every registered engine.
package tmtest

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/tm"
)

// Factory builds a fresh engine instance per test case.
type Factory func() tm.Engine

// addr returns the word address of line i (one object per line).
func addr(i int) mem.Addr { return mem.Addr(i * mem.LineBytes) }

// RunConformance runs the whole suite against engines built by f.
func RunConformance(t *testing.T, f Factory) {
	t.Helper()
	t.Run("ReadYourOwnWrites", func(t *testing.T) { testReadYourOwnWrites(t, f) })
	t.Run("AtomicVisibility", func(t *testing.T) { testAtomicVisibility(t, f) })
	t.Run("NoLostUpdates", func(t *testing.T) { testNoLostUpdates(t, f) })
	t.Run("ExplicitAbortRollsBack", func(t *testing.T) { testExplicitAbort(t, f) })
	t.Run("ReadOnlyCommits", func(t *testing.T) { testReadOnlyCommits(t, f) })
	t.Run("NonTxAccess", func(t *testing.T) { testNonTxAccess(t, f) })
	t.Run("Determinism", func(t *testing.T) { testDeterminism(t, f) })
	t.Run("BankInvariant", func(t *testing.T) { testBankInvariant(t, f) })
	t.Run("AbortErrorsCarryKind", func(t *testing.T) { testAbortKinds(t, f) })
}

func testReadYourOwnWrites(t *testing.T, f Factory) {
	e := f()
	sched.New(1, 1).Run(func(th *sched.Thread) {
		tx := e.Begin(th)
		tx.Write(addr(1), 11)
		tx.Write(addr(1)+8, 12) // second word, same line
		if tx.Read(addr(1)) != 11 || tx.Read(addr(1)+8) != 12 {
			t.Error("transaction cannot read its own writes")
		}
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
	})
	if e.NonTxRead(addr(1)) != 11 || e.NonTxRead(addr(1)+8) != 12 {
		t.Error("committed words lost")
	}
}

func testAtomicVisibility(t *testing.T, f Factory) {
	// A transaction writing two lines becomes visible all-or-nothing:
	// concurrent observers running under the retry loop never see one
	// line updated without the other.
	e := f()
	a, b := addr(1), addr(2)
	torn := false
	s := sched.New(4, 5)
	s.Run(func(th *sched.Thread) {
		if th.ID() == 0 {
			for i := uint64(1); i <= 20; i++ {
				_ = tm.Atomic(e, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
					tx.Write(a, i)
					tx.Write(b, i)
					return nil
				})
			}
			return
		}
		for i := 0; i < 30; i++ {
			var va, vb uint64
			_ = tm.Atomic(e, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
				va = tx.Read(a)
				vb = tx.Read(b)
				return nil
			})
			if va != vb {
				torn = true
			}
		}
	})
	if torn {
		t.Error("observed a torn (non-atomic) update")
	}
}

func testNoLostUpdates(t *testing.T, f Factory) {
	e := f()
	const perThread = 30
	s := sched.New(4, 7)
	s.Run(func(th *sched.Thread) {
		for i := 0; i < perThread; i++ {
			err := tm.Atomic(e, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
				tx.Write(addr(1), tx.Read(addr(1))+1)
				return nil
			})
			if err != nil {
				t.Errorf("Atomic: %v", err)
			}
		}
	})
	if got := e.NonTxRead(addr(1)); got != 4*perThread {
		t.Errorf("counter = %d, want %d (lost or duplicated updates)", got, 4*perThread)
	}
}

func testExplicitAbort(t *testing.T, f Factory) {
	e := f()
	e.NonTxWrite(addr(1), 5)
	sched.New(1, 1).Run(func(th *sched.Thread) {
		tx := e.Begin(th)
		tx.Write(addr(1), 99)
		tx.Abort()
	})
	if e.NonTxRead(addr(1)) != 5 {
		t.Error("aborted write leaked")
	}
	if e.Stats().Aborts[tm.AbortExplicit] != 1 {
		t.Error("explicit abort not counted")
	}
}

func testReadOnlyCommits(t *testing.T, f Factory) {
	e := f()
	e.NonTxWrite(addr(1), 1)
	sched.New(1, 1).Run(func(th *sched.Thread) {
		tx := e.Begin(th)
		_ = tx.Read(addr(1))
		if err := tx.Commit(); err != nil {
			t.Errorf("read-only commit failed: %v", err)
		}
	})
	if e.Stats().ReadOnly != 1 || e.Stats().Commits != 1 {
		t.Errorf("stats = %+v", e.Stats())
	}
}

func testNonTxAccess(t *testing.T, f Factory) {
	e := f()
	e.NonTxWrite(addr(3), 7)
	if e.NonTxRead(addr(3)) != 7 {
		t.Error("non-transactional round trip failed")
	}
	sched.New(1, 1).Run(func(th *sched.Thread) {
		tx := e.Begin(th)
		if tx.Read(addr(3)) != 7 {
			t.Error("initialisation data invisible to transactions")
		}
		_ = tx.Commit()
	})
}

func testDeterminism(t *testing.T, f Factory) {
	run := func() (uint64, uint64, uint64) {
		e := f()
		s := sched.New(4, 11)
		s.Run(func(th *sched.Thread) {
			for i := 0; i < 25; i++ {
				_ = tm.Atomic(e, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
					a := addr(1 + th.Rand().Intn(4))
					tx.Write(a, tx.Read(a)+1)
					return nil
				})
			}
		})
		return e.Stats().Commits, e.Stats().TotalAborts(), s.Makespan()
	}
	c1, a1, m1 := run()
	c2, a2, m2 := run()
	if c1 != c2 || a1 != a2 || m1 != m2 {
		t.Errorf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", c1, a1, m1, c2, a2, m2)
	}
}

func testBankInvariant(t *testing.T, f Factory) {
	// Transfers between accounts conserve the total. This holds under
	// snapshot isolation too: transfers are read-modify-write on both
	// accounts, so every interleaving is a write-write conflict.
	e := f()
	const accounts = 8
	for i := 0; i < accounts; i++ {
		e.NonTxWrite(addr(i+1), 100)
	}
	s := sched.New(4, 13)
	s.Run(func(th *sched.Thread) {
		r := th.Rand()
		for i := 0; i < 40; i++ {
			from := addr(1 + r.Intn(accounts))
			to := addr(1 + r.Intn(accounts))
			amount := uint64(1 + r.Intn(10))
			_ = tm.Atomic(e, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
				balance := tx.Read(from)
				if balance < amount || from == to {
					return nil
				}
				tx.Write(from, balance-amount)
				tx.Write(to, tx.Read(to)+amount)
				return nil
			})
		}
	})
	var total uint64
	for i := 0; i < accounts; i++ {
		total += e.NonTxRead(addr(i + 1))
	}
	if total != accounts*100 {
		t.Errorf("total = %d, want %d (money created or destroyed)", total, accounts*100)
	}
}

func testAbortKinds(t *testing.T, f Factory) {
	// Two concurrent writers to the same line: the losing commit (or
	// doomed victim) must report a classified abort, not success.
	e := f()
	failures := 0
	var kinds []tm.AbortKind
	sched.New(2, 17).Run(func(th *sched.Thread) {
		defer func() {
			if r := recover(); r != nil {
				failures++ // eager doom via signal is acceptable
			}
		}()
		tx := e.Begin(th)
		// Read-modify-write: unlike blind writes (which conflict
		// serializability may legitimately order last-writer-wins),
		// overlapping RMWs cannot both commit under any engine. The
		// long pauses force both reads to register before either
		// commit, so the transactions genuinely overlap.
		v := tx.Read(addr(1))
		th.Tick(300)
		tx.Write(addr(1), v+uint64(th.ID())+1)
		th.Tick(300)
		if err := tx.Commit(); err != nil {
			failures++
			if ab, ok := err.(*tm.AbortError); ok {
				kinds = append(kinds, ab.Kind)
			} else {
				t.Errorf("commit error is not *tm.AbortError: %v", err)
			}
		}
	})
	if failures == 0 {
		t.Error("conflicting writers both succeeded")
	}
	for _, k := range kinds {
		if k == tm.AbortExplicit {
			t.Errorf("conflict abort misclassified as explicit")
		}
	}
}
