package tmtest_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/tm"
)

// TestBrokenPromisesPanic pins the read-promise contract of tm.Txn on
// every registered engine, by default and on its reference sets, which
// batch and honour promises alike. With promised or reserved reads
// outstanding, Write, Commit and an explicit Abort break the promise: an
// engine that honours promises (it published slack for them) panics,
// naming the transaction and both counts, and one that does not —
// SSI-TM, which never batches — carries on. A
// conflict abort drops promise and reserve instead: a scanner that a
// peer's write of line 1 aborts mid-scan unwinds without a panic.
func TestBrokenPromisesPanic(t *testing.T) {
	addr := func(i int) mem.Addr { return mem.Addr(i * mem.LineBytes) }
	honours := map[string]bool{"2PL": true, "SONTM": true, "SI-TM": true}
	aborts := map[string]bool{"2PL": true, "SONTM": true}
	for _, name := range tm.Engines() {
		for _, refSets := range []bool{false, true} {
			opts := tm.EngineOptions{ReferenceSets: refSets}
			t.Run(fmt.Sprintf("%s/reference-sets=%v", name, refSets), func(t *testing.T) {
				newEngine := func() tm.Engine {
					e, err := tm.NewEngine(name, opts)
					if err != nil {
						t.Fatalf("constructing %s: %v", name, err)
					}
					return e
				}
				want := honours[name]
				// Each way leaves one read outstanding after a read:
				// a promise of two, or a reserve of one.
				ways := []struct {
					name, left string
					owe        func(tm.Txn)
				}{
					{"promise", "1 promised reads outstanding, 0 reserved", func(tx tm.Txn) { tx.PromiseReads(2) }},
					{"reserve", "0 promised reads outstanding, 1 reserved", func(tx tm.Txn) { tx.ReserveReads(1) }},
				}
				for _, way := range ways {
					for _, op := range []string{"Write", "Commit", "Abort"} {
						e := newEngine()
						var got any
						sched.New(1, 1).Run(func(th *sched.Thread) {
							defer func() { got = recover() }()
							tx := e.Begin(th)
							before := th.Slack()
							way.owe(tx)
							if published := th.Slack() > before; published != want {
								t.Errorf("%s published slack: %v, want %v", way.name, published, want)
							}
							tx.Read(addr(1))
							switch op {
							case "Write":
								tx.Write(addr(2), 1)
							case "Commit":
								_ = tx.Commit()
							case "Abort":
								tx.Abort()
							}
						})
						msg, _ := got.(string)
						switch {
						case want && !strings.Contains(msg, op+" with "+way.left):
							t.Errorf("%s with a %s outstanding: recovered %v, want a broken-promise panic", op, way.name, got)
						case want && !strings.Contains(msg, name+": transaction "):
							t.Errorf("%s: panic %q does not name the transaction", op, msg)
						case !want && got != nil:
							t.Errorf("%s under a %s the engine does not honour panicked: %v", op, way.name, got)
						}
					}
				}

				// The scanner reads line 1, parks with two reads promised
				// and two reserved, and rereads line 1 after thread 1
				// committed a write of it: 2PL doomed it at the write,
				// SONTM's interval empties at the reread, SI-TM reads its
				// snapshot and drops the reserve before it commits. Then
				// the scanner's thread writes line 3.
				e := newEngine()
				var scanErr error
				var got any
				s := sched.New(2, 1)
				s.Run(func(th *sched.Thread) {
					switch th.ID() {
					case 0:
						defer func() { got = recover() }()
						scanErr = tm.RunOnce(e, th, func(tx tm.Txn) error {
							tx.ReserveReads(2)
							tx.PromiseReads(3)
							tx.Read(addr(1))
							th.Tick(1 << 20)
							tx.Read(addr(1))
							tx.Read(addr(2))
							tx.ReserveReads(0)
							return nil
						})
						// The thread's next attempt owes nothing and
						// may write at once.
						if err := tm.RunOnce(e, th, func(tx tm.Txn) error {
							tx.Write(addr(3), 1)
							return nil
						}); err != nil {
							t.Errorf("the scanner's next transaction: %v", err)
						}
					case 1:
						th.Tick(1 << 19)
						if err := tm.RunOnce(e, th, func(tx tm.Txn) error {
							tx.Write(addr(1), 1)
							return nil
						}); err != nil {
							t.Errorf("writer: %v", err)
						}
					}
				})
				if got != nil {
					t.Errorf("a conflict abort under a promise panicked: %v", got)
				}
				if _, aborted := scanErr.(*tm.AbortError); aborted != aborts[name] {
					t.Errorf("scanner ended with %v; want an abort: %v", scanErr, aborts[name])
				}
			})
		}
	}
}
