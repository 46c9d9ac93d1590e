package twopl

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/tm"
)

func addr(i int) mem.Addr { return mem.Addr(i * mem.LineBytes) }

func single(body func(th *sched.Thread)) {
	sched.New(1, 1).Run(body)
}

func TestBasicCommit(t *testing.T) {
	e := New(DefaultConfig())
	single(func(th *sched.Thread) {
		tx := e.Begin(th)
		tx.Write(addr(1), 7)
		if v := tx.Read(addr(1)); v != 7 {
			t.Errorf("read own write = %d", v)
		}
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
	})
	if e.NonTxRead(addr(1)) != 7 {
		t.Fatal("write not committed")
	}
}

func TestRequesterWinsOnRead(t *testing.T) {
	// A transactional read (get-shared) aborts the writer holding the
	// line: requester wins, victim sees a read-write abort.
	e := New(DefaultConfig())
	single(func(th *sched.Thread) {
		w := e.Begin(th)
		w.Write(addr(1), 1)
		r := e.Begin(th)
		_ = r.Read(addr(1))
		if err := r.Commit(); err != nil {
			t.Errorf("requester must commit: %v", err)
		}
		defer func() {
			if recover() == nil {
				t.Error("victim writer should abort via signal")
			}
		}()
		w.Write(addr(2), 2) // doomed: unwinds
	})
	if e.Stats().Aborts[tm.AbortReadWrite] != 1 {
		t.Fatalf("read-write aborts = %d, want 1", e.Stats().Aborts[tm.AbortReadWrite])
	}
	if e.NonTxRead(addr(1)) != 0 {
		t.Fatal("doomed writer's data leaked")
	}
}

func TestRequesterWinsOnWrite(t *testing.T) {
	// A transactional write (get-exclusive) aborts all readers.
	e := New(DefaultConfig())
	single(func(th *sched.Thread) {
		r := e.Begin(th)
		_ = r.Read(addr(1))
		w := e.Begin(th)
		w.Write(addr(1), 1)
		if err := w.Commit(); err != nil {
			t.Errorf("requester must commit: %v", err)
		}
		if err := r.Commit(); err == nil {
			t.Error("doomed reader must abort at commit")
		}
	})
	if e.Stats().Aborts[tm.AbortReadWrite] != 1 {
		t.Fatalf("read-write aborts = %d, want 1", e.Stats().Aborts[tm.AbortReadWrite])
	}
}

func TestWriteWriteDoom(t *testing.T) {
	e := New(DefaultConfig())
	single(func(th *sched.Thread) {
		w1 := e.Begin(th)
		w1.Write(addr(1), 1)
		w2 := e.Begin(th)
		w2.Write(addr(1), 2)
		if err := w2.Commit(); err != nil {
			t.Errorf("requester: %v", err)
		}
		if err := w1.Commit(); err == nil {
			t.Error("victim must abort")
		}
	})
	if e.Stats().Aborts[tm.AbortWriteWrite] != 1 {
		t.Fatalf("write-write aborts = %d, want 1", e.Stats().Aborts[tm.AbortWriteWrite])
	}
}

// TestFigure2Schedule2PL replays Figure 2: TX0's accesses doom every other
// transaction — 2PL is "unnecessarily pessimistic".
func TestFigure2Schedule2PL(t *testing.T) {
	e := New(DefaultConfig())
	A, B, C := addr(1), addr(2), addr(3)
	aborted := 0
	single(func(th *sched.Thread) {
		tx0 := e.Begin(th)
		tx1 := e.Begin(th)
		tx2 := e.Begin(th)
		tx3 := e.Begin(th)

		attempt := func(tx tm.Txn, body func()) {
			defer func() {
				if recover() != nil {
					aborted++
				}
			}()
			body()
			if err := tx.Commit(); err != nil {
				aborted++
			}
		}

		_ = tx0.Read(A)
		_ = tx3.Read(A)
		tx0.Write(A, 1) // dooms tx3 (reader of A)
		_ = tx2.Read(B)
		tx2.Write(C, 1)
		tx0.Write(B, 1) // dooms tx2 (reader of B)
		if err := tx0.Commit(); err != nil {
			t.Fatalf("TX0: %v", err)
		}
		attempt(tx1, func() { _ = tx1.Read(A) }) // reads after tx0 commit: fine
		attempt(tx3, func() { tx3.Write(A, 2) })
		attempt(tx2, func() { _ = tx2.Read(A) })
	})
	// Under this interleaving TX2 and TX3 abort (TX1 read A after TX0
	// committed, so it survives; aborting TX1 requires overlap with
	// TX0's write, which Figure 2's timeline shows but a serial replay
	// cannot).
	if aborted != 2 {
		t.Fatalf("aborted = %d, want 2 (TX2, TX3)", aborted)
	}
}

func TestConcurrentIncrementsAreSerializable(t *testing.T) {
	e := New(DefaultConfig())
	s := sched.New(4, 5)
	s.Run(func(th *sched.Thread) {
		for i := 0; i < 25; i++ {
			err := tm.Atomic(e, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
				v := tx.Read(addr(1))
				tx.Write(addr(1), v+1)
				return nil
			})
			if err != nil {
				t.Errorf("Atomic: %v", err)
			}
		}
	})
	if got := e.NonTxRead(addr(1)); got != 100 {
		t.Fatalf("counter = %d, want 100", got)
	}
}

func TestAbortDiscardsWriteLog(t *testing.T) {
	e := New(DefaultConfig())
	e.NonTxWrite(addr(1), 5)
	single(func(th *sched.Thread) {
		tx := e.Begin(th)
		tx.Write(addr(1), 9)
		tx.Abort()
	})
	if e.NonTxRead(addr(1)) != 5 {
		t.Fatal("aborted write leaked")
	}
	if e.Stats().Aborts[tm.AbortExplicit] != 1 {
		t.Fatal("explicit abort not counted")
	}
}

func TestReadOnlyCounted(t *testing.T) {
	e := New(DefaultConfig())
	single(func(th *sched.Thread) {
		tx := e.Begin(th)
		_ = tx.Read(addr(1))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	if e.Stats().ReadOnly != 1 {
		t.Fatal("read-only commit not counted")
	}
}

func TestLivelockAvoidedWithBackoff(t *testing.T) {
	// Two threads RMW the same two lines in opposite order: mutual
	// dooming is likely; exponential backoff must still let both make
	// progress (§6.4).
	e := New(DefaultConfig())
	s := sched.New(2, 11)
	done := [2]bool{}
	s.Run(func(th *sched.Thread) {
		a, b := addr(1), addr(2)
		if th.ID() == 1 {
			a, b = b, a
		}
		for i := 0; i < 10; i++ {
			err := tm.Atomic(e, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
				tx.Write(a, tx.Read(a)+1)
				tx.Write(b, tx.Read(b)+1)
				return nil
			})
			if err != nil {
				t.Errorf("Atomic: %v", err)
			}
		}
		done[th.ID()] = true
	})
	if !done[0] || !done[1] {
		t.Fatal("a thread failed to finish")
	}
	if e.NonTxRead(addr(1)) != 20 || e.NonTxRead(addr(2)) != 20 {
		t.Fatalf("counters = %d,%d want 20,20", e.NonTxRead(addr(1)), e.NonTxRead(addr(2)))
	}
}

// TestGetExclusiveDoomsManyReaders holds more live readers of one line
// than one bitmap word has bits: the get-exclusive must doom every one of
// them, the freed slots must be reused lowest first, and no hold may
// survive.
func TestGetExclusiveDoomsManyReaders(t *testing.T) {
	const readers = 70
	e := New(DefaultConfig())
	single(func(th *sched.Thread) {
		var rs []tm.Txn
		for i := 0; i < readers; i++ {
			r := e.Begin(th)
			_ = r.Read(addr(1))
			_ = r.Read(addr(2 + i))
			rs = append(rs, r)
		}
		w := e.Begin(th)
		w.Write(addr(1), 1)
		if err := w.Commit(); err != nil {
			t.Fatalf("requester: %v", err)
		}
		for i, r := range rs {
			if err := r.Commit(); err == nil {
				t.Errorf("reader %d (slot %d) committed past the get-exclusive", i, r.(*txn).slot)
			}
		}
		if slot := e.Begin(th).(*txn).slot; slot != 0 {
			t.Errorf("first Begin after the readers finished took slot %d, want 0", slot)
		}
		e.lastTxn[th.ID()].Abort()
	})
	if got := e.Stats().Aborts[tm.AbortReadWrite]; got != readers {
		t.Fatalf("read-write aborts = %d, want %d", got, readers)
	}
	if err := e.AuditAccessSets(); err != nil {
		t.Fatal(err)
	}
}
