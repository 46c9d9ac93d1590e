package sontm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/tm"
)

// TestDoomRevokesPromisedReads pins the revocation of read promises and
// reserves. First on a parked scanner: thread 1 commits a write of line
// 3 at SON 1024. Thread 0 reserves two reads, promises two, reads line
// 3, which raises its lower bound past 1024, and line 1, and parks with
// the reserve outstanding. Thread 1, which finds it publishing the read
// slack plus two reads' charge, commits a write of line 1 at SON 1024,
// whose broadcast empties the scanner's interval; the scanner then
// publishes the read slack, and again after it unwinds. Then end to end:
// each thread first caches its lines, then all three meet at cycle t0.
// Thread 1 has committed a write of line 3 at SON 1024, so thread 0's
// read of it raises the reader's lower bound past 1024. Thread 0 then
// promises a 64-line scan whose first 16 lines hit its L1 and parks
// inside the 17th read's miss. Thread 1's writer commit of line 1, at
// SON 1024, clamps the scanner's upper bound below its lower one and
// dooms it there. Its retry writes line 2 and commits at once instead of
// scanning. Thread 2, parked below the scanner, re-reads line 2 from its
// L1 and batches up to the horizon the scanner's slack allows. The doom
// must lower that slack to one read's, or thread 2 batches past the
// retry's commit, which Interact reports as a stale promise. Batched
// must equal per-event.
func TestDoomRevokesPromisedReads(t *testing.T) {
	cfg := DefaultConfig()
	read := cfg.Cache.L1Latency
	parked := New(cfg)
	write := func(th *sched.Thread, line int) {
		if err := tm.RunOnce(parked, th, func(tx tm.Txn) error {
			tx.Write(addr(line), 1)
			return nil
		}); err != nil {
			t.Errorf("write of line %d: %v", line, err)
		}
	}
	sim := sched.New(2, 1)
	sim.Run(func(th *sched.Thread) {
		scanner := sim.Thread(0)
		at := func(when string, want uint64) {
			t.Helper()
			if got := scanner.Slack(); got != want {
				t.Errorf("%s: scanner slack %d, want %d", when, got, want)
			}
		}
		switch th.ID() {
		case 0:
			th.Tick(1 << 18) // after thread 1's write of line 3
			err := tm.RunOnce(parked, th, func(tx tm.Txn) error {
				tx.ReserveReads(2)
				tx.PromiseReads(2)
				tx.Read(addr(3))
				tx.Read(addr(1))
				th.Tick(1 << 20)
				tx.Read(addr(2)) // unwinds: doomed
				return nil
			})
			if _, ok := err.(*tm.AbortError); !ok {
				t.Errorf("scanner ended with %v, want an abort", err)
			}
			at("after the scanner unwound", read)
		case 1:
			write(th, 3)
			th.Tick(1<<19 - th.Cycles())
			at("parked with two reserved reads", read+2*read)
			write(th, 1)
			at("after a peer's doom", read)
		}
	})

	const scan, t0 = 64, 1 << 20
	run := func(perEvent bool) (out string) {
		e := New(DefaultConfig())
		s := sched.New(3, 1)
		s.SetPerEvent(perEvent)
		cycles := make([]uint64, 3)
		errs := make([]error, 3)
		retried := false
		defer func() {
			if r := recover(); r != nil {
				out = fmt.Sprint("panic: ", r)
			}
		}()
		atomic := func(th *sched.Thread, body func(tm.Txn)) error {
			return tm.Atomic(e, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
				body(tx)
				return nil
			})
		}
		read := func(th *sched.Thread, line int) {
			_ = atomic(th, func(tx tm.Txn) { tx.Read(addr(line)) })
		}
		s.Run(func(th *sched.Thread) {
			id := th.ID()
			switch id {
			case 0: // the scanner
				th.Tick(1000) // after thread 1's write of line 3
				for i := 1; i <= 16; i++ {
					read(th, i)
				}
				th.Tick(t0 - th.Cycles())
				attempts := 0
				errs[id] = atomic(th, func(tx tm.Txn) {
					if attempts++; attempts > 1 {
						retried = true
						tx.Write(addr(2), 1)
						return
					}
					tx.PromiseReads(scan)
					for i := 1; i <= scan; i++ {
						tx.Read(addr(i))
					}
				})
			case 1: // the doomer
				_ = atomic(th, func(tx tm.Txn) { tx.Write(addr(3), 1) })
				read(th, 1)
				th.Tick(t0 + 100 - th.Cycles())
				errs[id] = atomic(th, func(tx tm.Txn) { tx.Write(addr(1), 1) })
			case 2: // the batching reader
				read(th, 2)
				th.Tick(t0 - th.Cycles())
				errs[id] = atomic(th, func(tx tm.Txn) {
					for i := 0; i < 2000; i++ {
						tx.Read(addr(2))
					}
				})
			}
			cycles[id] = th.Cycles()
		})
		st := e.Stats()
		return fmt.Sprint(cycles, errs, st.Commits, st.Aborts, retried, s.Stats().BatchedEvents > 0)
	}
	perEvent := run(true)
	batched := run(false)
	if !strings.HasSuffix(perEvent, "true false") {
		t.Fatalf("the scanner was not doomed mid-scan: %s", perEvent)
	}
	// The batched run also reports that it batched, which the per-event
	// run never does; compare the rest.
	if want := strings.TrimSuffix(perEvent, "false") + "true"; batched != want {
		t.Errorf("batched run diverges from per-event:\n got %s\nwant %s", batched, want)
	}
}
