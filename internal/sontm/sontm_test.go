package sontm

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
		tx.Write(addr(1), 3)
		if v := tx.Read(addr(1)); v != 3 {
			t.Errorf("read own write = %d", v)
		}
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
	})
	if e.NonTxRead(addr(1)) != 3 {
		t.Fatal("write not committed")
	}
}

// TestOrderableConflictCommits is the key CS property Figure 2 relies on:
// a reader that overlaps a committed writer can still commit when a valid
// serialization order exists (the reader serializes before the writer).
func TestOrderableConflictCommits(t *testing.T) {
	e := New(DefaultConfig())
	e.NonTxWrite(addr(1), 5)
	single(func(th *sched.Thread) {
		r := e.Begin(th)
		_ = r.Read(addr(1)) // reads the old value
		w := e.Begin(th)
		w.Write(addr(1), 6)
		if err := w.Commit(); err != nil {
			t.Fatalf("writer: %v", err)
		}
		// r read the pre-write value: r serializes before w.
		if err := r.Commit(); err != nil {
			t.Errorf("orderable reader must commit under CS: %v", err)
		}
	})
	if e.Stats().TotalAborts() != 0 {
		t.Fatalf("aborts = %d, want 0", e.Stats().TotalAborts())
	}
}

// TestFigure2ScheduleCS replays Figure 2 under conflict serializability:
// TX0 and TX1 commit; TX2 aborts (cyclic dependency with TX0 through A and
// B); TX3 aborts (would have to serialize both before and after TX0).
func TestFigure2ScheduleCS(t *testing.T) {
	e := New(DefaultConfig())
	A, B, C := addr(1), addr(2), addr(3)
	e.NonTxWrite(A, 1)
	e.NonTxWrite(B, 1)
	results := map[string]error{}
	single(func(th *sched.Thread) {
		tx0 := e.Begin(th)
		tx1 := e.Begin(th)
		tx2 := e.Begin(th)
		tx3 := e.Begin(th)

		step := func(name string, f func()) {
			if results[name] != nil {
				return // already aborted
			}
			defer func() {
				if r := recover(); r != nil {
					results[name] = r.(error)
				}
			}()
			f()
		}
		_ = step
		read := func(name string, tx tm.Txn, a mem.Addr) {
			if results[name] == nil {
				func() {
					defer func() {
						if r := recover(); r != nil {
							results[name] = &tm.AbortError{Kind: tm.AbortOrder}
						}
					}()
					_ = tx.Read(a)
				}()
			}
		}
		write := func(name string, tx tm.Txn, a mem.Addr) {
			if results[name] == nil {
				func() {
					defer func() {
						if r := recover(); r != nil {
							results[name] = &tm.AbortError{Kind: tm.AbortOrder}
						}
					}()
					tx.Write(a, 9)
				}()
			}
		}
		commit := func(name string, tx tm.Txn) {
			if results[name] == nil {
				results[name] = tx.Commit()
			}
		}

		read("tx0", tx0, A)
		read("tx3", tx3, A)
		write("tx0", tx0, A)
		read("tx2", tx2, B)
		write("tx2", tx2, C)
		write("tx0", tx0, B)
		commit("tx0", tx0)
		read("tx1", tx1, A)
		write("tx3", tx3, A)
		commit("tx1", tx1)
		read("tx2", tx2, A)
		commit("tx2", tx2)
		commit("tx3", tx3)
	})
	if results["tx0"] != nil {
		t.Errorf("TX0 must commit: %v", results["tx0"])
	}
	if results["tx1"] != nil {
		t.Errorf("TX1 must commit under CS: %v", results["tx1"])
	}
	if results["tx2"] == nil {
		t.Error("TX2 must abort under CS (cycle with TX0)")
	}
	if results["tx3"] == nil {
		t.Error("TX3 must abort under CS")
	}
}

func TestWriterAfterCommittedReaderOrdering(t *testing.T) {
	// A committed reader of line A forces a later writer of A to take a
	// higher SON; if that writer also read data constraining it below,
	// it aborts.
	e := New(DefaultConfig())
	single(func(th *sched.Thread) {
		r := e.Begin(th)
		_ = r.Read(addr(1))
		if err := r.Commit(); err != nil {
			t.Fatalf("reader: %v", err)
		}
		w := e.Begin(th)
		w.Write(addr(1), 2)
		if err := w.Commit(); err != nil {
			t.Fatalf("writer after committed reader must still commit: %v", err)
		}
	})
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
}

func TestIntervalEmptyAborts(t *testing.T) {
	// Long reader: reads A (must be before any later writer of A) then
	// reads a line freshly written by a high-SON committer (must be
	// after it) -> interval empties.
	e := New(DefaultConfig())
	single(func(th *sched.Thread) {
		long := e.Begin(th)
		_ = long.Read(addr(1))
		// Updater 1 bumps A's write number past long's upper bound.
		u1 := e.Begin(th)
		u1.Write(addr(1), 1)
		if err := u1.Commit(); err != nil {
			t.Fatalf("u1: %v", err)
		}
		// Updater 2 writes B with an even higher SON.
		u2 := e.Begin(th)
		_ = u2.Read(addr(1)) // forces u2 after u1
		u2.Write(addr(2), 2)
		if err := u2.Commit(); err != nil {
			t.Fatalf("u2: %v", err)
		}
		// long now reads B: lo must exceed hi.
		aborted := false
		func() {
			defer func() {
				if recover() != nil {
					aborted = true
				}
			}()
			_ = long.Read(addr(2))
			if err := long.Commit(); err != nil {
				aborted = true
			}
		}()
		if !aborted {
			t.Error("long reader with cyclic constraints must abort")
		}
	})
}

func TestReadOnlyCommits(t *testing.T) {
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

// TestWriterCommitDoomsManyReaders holds more live readers of one line
// than one bitmap word has bits. Each must serialize after a committed
// writer of another line, so the commit of a new writer of their shared
// line must empty every one of their intervals, and no hold may survive.
func TestWriterCommitDoomsManyReaders(t *testing.T) {
	const readers = 70
	e := New(DefaultConfig())
	single(func(th *sched.Thread) {
		w1 := e.Begin(th)
		w1.Write(addr(2), 1)
		if err := w1.Commit(); err != nil {
			t.Fatalf("w1: %v", err)
		}
		var rs []tm.Txn
		for i := 0; i < readers; i++ {
			r := e.Begin(th)
			_ = r.Read(addr(2)) // serializes after w1
			_ = r.Read(addr(1)) // must serialize before w2
			rs = append(rs, r)
		}
		w2 := e.Begin(th)
		w2.Write(addr(1), 1)
		if err := w2.Commit(); err != nil {
			t.Fatalf("w2: %v", err)
		}
		for i, r := range rs {
			if err := r.Commit(); err == nil {
				t.Errorf("reader %d (slot %d) committed with an empty interval", i, r.(*txn).slot)
			}
		}
	})
	if got := e.Stats().Aborts[tm.AbortOrder]; got != readers {
		t.Fatalf("order aborts = %d, want %d", got, readers)
	}
	if err := e.AuditAccessSets(); err != nil {
		t.Fatal(err)
	}
}
