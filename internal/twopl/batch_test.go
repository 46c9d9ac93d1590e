package twopl

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/tm"
)

// TestDoomingReadStaysPerEvent pins that a read of a line another
// transaction holds as writer is charged per event even in the read
// phase: the doom it delivers is an effect on the writer. Thread 2's read
// of line L lands three cycles past thread 1, which is parked inside its
// own read of line M after the charge. Both lines belong to thread 0's
// writer, and the first doom names the line in the writer's abort. Per
// event, thread 1 resumes first and dooms it on M. A batched read of L
// would have doomed it on L first.
func TestDoomingReadStaysPerEvent(t *testing.T) {
	lineL, lineM := addr(1), addr(2)
	run := func(perEvent bool) error {
		e := New(DefaultConfig())
		s := sched.New(3, 1)
		s.SetPerEvent(perEvent)
		var writerErr error
		reading := false
		s.Run(func(th *sched.Thread) {
			switch th.ID() {
			case 0: // the writer: holds L and M, then parks far ahead
				th.Tick(200)
				writerErr = tm.RunOnce(e, th, func(tx tm.Txn) error {
					tx.Write(lineL, 1)
					tx.Write(lineM, 1)
					th.Tick(1 << 20)
					tx.Read(addr(3)) // unwinds: the writer is doomed
					return nil
				})
			case 1: // parks inside its read of M, which dooms the writer
				th.Tick(1000)
				_ = tm.RunOnce(e, th, func(tx tm.Txn) error {
					reading = true
					tx.Read(lineM)
					return nil
				})
			case 2: // caches L first, then reads it just behind thread 1
				_ = tm.RunOnce(e, th, func(tx tm.Txn) error {
					tx.Read(lineL)
					return nil
				})
				for !reading {
					th.Tick(1)
				}
				th.Tick(s.Thread(1).Cycles() - 5 - th.Cycles())
				_ = tm.RunOnce(e, th, func(tx tm.Txn) error {
					tx.Read(lineL)
					return nil
				})
			}
		})
		return writerErr
	}
	for _, perEvent := range []bool{true, false} {
		err := run(perEvent)
		abort, ok := err.(*tm.AbortError)
		if !ok || abort.Kind != tm.AbortReadWrite || abort.Line != mem.LineOf(lineM) {
			t.Errorf("perEvent=%v: writer ended with %v, want a read-write abort on line %#x", perEvent, err, uint64(mem.LineOf(lineM)))
		}
	}
}

// TestDoomRevokesPromisedReads pins the revocation of read promises and
// reserves. First on a parked scanner: thread 0 reserves three reads,
// promises one, reads line 1 and parks with the reserve outstanding;
// thread 1, which finds it publishing the read slack plus three reads'
// charge, dooms it by writing line 1, after which it publishes the read
// slack, and again after it unwinds. Then end to end: each thread first
// caches its lines, then all three meet at cycle t0.
// Thread 0 promises a 64-line scan whose first 16 lines hit its L1; it
// parks inside the 17th read's miss, and thread 1's get-exclusive on
// line 1 dooms it there. Its retry writes line 2 at once instead of
// scanning. Thread 2, parked below the scanner, re-reads line 2 from its
// L1 and batches up to the horizon the scanner's slack allows. The doom
// must lower that slack to one read's, or thread 2 batches past the
// retry's get-exclusive on line 2, which Interact reports as a stale
// promise. Batched must equal per-event.
func TestDoomRevokesPromisedReads(t *testing.T) {
	cfg := DefaultConfig()
	read := cfg.Cache.L1Latency + cfg.BroadcastCost
	parked := New(cfg)
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
			err := tm.RunOnce(parked, th, func(tx tm.Txn) error {
				tx.ReserveReads(3)
				tx.PromiseReads(1)
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
			th.Tick(1 << 19)
			at("parked with three reserved reads", read+3*read)
			if err := tm.RunOnce(parked, th, func(tx tm.Txn) error {
				tx.Write(addr(1), 1)
				return nil
			}); err != nil {
				t.Errorf("doomer: %v", err)
			}
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
		read := func(th *sched.Thread, line int) {
			_ = tm.Atomic(e, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
				tx.Read(addr(line))
				return nil
			})
		}
		s.Run(func(th *sched.Thread) {
			id := th.ID()
			switch id {
			case 0: // the scanner
				for i := 1; i <= 16; i++ {
					read(th, i)
				}
				th.Tick(t0 - th.Cycles())
				attempts := 0
				errs[id] = tm.Atomic(e, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
					if attempts++; attempts > 1 {
						retried = true
						tx.Write(addr(2), 1)
						return nil
					}
					tx.PromiseReads(scan)
					for i := 1; i <= scan; i++ {
						tx.Read(addr(i))
					}
					return nil
				})
			case 1: // the doomer
				read(th, 1)
				th.Tick(t0 + 100 - th.Cycles())
				errs[id] = tm.Atomic(e, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
					tx.Write(addr(1), 1)
					return nil
				})
			case 2: // the batching reader
				read(th, 2)
				th.Tick(t0 - th.Cycles())
				errs[id] = tm.Atomic(e, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
					for i := 0; i < 2000; i++ {
						tx.Read(addr(2))
					}
					return nil
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
