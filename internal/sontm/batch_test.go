package sontm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/tm"
)

// slackProbe is a tracer that records the thread's published interaction
// slack at every hook: inside Begin, inside Read and Write after their
// charge, and at the end of Commit and Abort.
type slackProbe struct {
	th  *sched.Thread
	got []string
}

func (p *slackProbe) note(ev string) {
	p.got = append(p.got, fmt.Sprintf("%s=%d", ev, p.th.Slack()))
}
func (p *slackProbe) TxnBegin(uint64, int)              { p.note("begin") }
func (p *slackProbe) TxnRead(uint64, mem.Addr, string)  { p.note("read") }
func (p *slackProbe) TxnWrite(uint64, mem.Addr, string) { p.note("write") }
func (p *slackProbe) TxnCommit(uint64)                  { p.note("commit") }
func (p *slackProbe) TxnAbort(uint64)                   { p.note("abort") }

// TestSlackFollowsWriteSet pins the interaction-slack contract SONTM's
// batched accesses rest on: L1Latency from Begin while the write set is
// empty, zero from the first write's charge through commit entry, and
// the read-phase value again once the transaction finishes, by commit or
// by abort. While promised reads are outstanding it is that value plus
// one read's charge, the same L1Latency, per remaining read; a tracer
// turns batching, and with it promises, off. The traced run reads it
// inside the operations. A peer's doom revokes the promise of a parked
// scanner (see promiseRevoked).
func TestSlackFollowsWriteSet(t *testing.T) {
	cfg := DefaultConfig()
	read := cfg.Cache.L1Latency
	promiseRevoked(t, New(cfg), read, read)
	for _, traced := range []bool{false, true} {
		promised := func(n uint64) uint64 {
			if traced {
				return read
			}
			return read + n*read
		}
		e := New(cfg)
		p := &slackProbe{}
		if traced {
			e.SetTracer(p)
		}
		single(func(th *sched.Thread) {
			p.th = th
			at := func(when string, want uint64) {
				t.Helper()
				if got := th.Slack(); got != want {
					t.Errorf("traced=%v, %s: slack %d, want %d", traced, when, got, want)
				}
			}
			tx := e.Begin(th)
			at("at Begin", read)
			tx.Read(addr(1))
			at("after a read", read)
			tx.Write(addr(2), 1)
			at("after the first write", 0)
			tx.Read(addr(3))
			at("at commit entry", 0)
			if err := tx.Commit(); err != nil {
				t.Fatalf("commit: %v", err)
			}
			at("after commit", read)
			tx = e.Begin(th)
			tx.Write(addr(4), 1)
			tx.Abort()
			at("after abort", read)
			tx = e.Begin(th)
			tx.Read(addr(4))
			if err := tx.Commit(); err != nil {
				t.Fatalf("read-only commit: %v", err)
			}
			at("after a read-only commit", read)
			tx = e.Begin(th)
			tx.PromiseReads(3)
			at("after promising three reads", promised(3))
			tx.Read(addr(5))
			at("after the first promised read", promised(2))
			tx.Read(addr(6))
			tx.Read(addr(7))
			at("after the last promised read", promised(0))
			tx.Write(addr(8), 1)
			if err := tx.Commit(); err != nil {
				t.Fatalf("commit after promised reads: %v", err)
			}
			at("after a commit that kept its promise", read)
			tx = e.Begin(th)
			tx.PromiseReads(1)
			tx.Read(addr(5))
			tx.Abort()
			at("after an abort that kept its promise", read)
		})
		if !traced {
			continue
		}
		r, z := fmt.Sprint(read), "0"
		want := []string{
			"begin=" + r, "read=" + r, "write=" + z, "read=" + z, "commit=" + r,
			"begin=" + r, "write=" + z, "abort=" + r,
			"begin=" + r, "read=" + r, "commit=" + r,
			"begin=" + r, "read=" + r, "read=" + r, "read=" + r, "write=" + z, "commit=" + r,
			"begin=" + r, "read=" + r, "abort=" + r,
		}
		if !reflect.DeepEqual(p.got, want) {
			t.Errorf("slack inside operations:\n got %v\nwant %v", p.got, want)
		}
	}
}

// promiseRevoked checks that a peer's doom revokes a parked scanner's
// promise. Thread 1 first commits a write of line 3 at SON 1024. Thread
// 0 promises four reads, reads line 3, which raises its lower bound past
// 1024, and line 1, and parks with two outstanding. Thread 1, which finds
// it publishing readSlack + 2 × readCharge, commits a write of line 1 at
// SON 1024, whose broadcast empties the scanner's interval; the scanner
// then publishes readSlack, and again after it unwinds.
func promiseRevoked(t *testing.T, e tm.Engine, readSlack, readCharge uint64) {
	t.Helper()
	write := func(th *sched.Thread, line int) {
		if err := tm.RunOnce(e, th, func(tx tm.Txn) error {
			tx.Write(addr(line), 1)
			return nil
		}); err != nil {
			t.Errorf("write of line %d: %v", line, err)
		}
	}
	s := sched.New(2, 1)
	s.Run(func(th *sched.Thread) {
		scanner := s.Thread(0)
		at := func(when string, want uint64) {
			t.Helper()
			if got := scanner.Slack(); got != want {
				t.Errorf("%s: scanner slack %d, want %d", when, got, want)
			}
		}
		switch th.ID() {
		case 0:
			th.Tick(1 << 18) // after thread 1's write of line 3
			err := tm.RunOnce(e, th, func(tx tm.Txn) error {
				tx.PromiseReads(4)
				tx.Read(addr(3))
				tx.Read(addr(1))
				th.Tick(1 << 20)
				tx.Read(addr(2)) // unwinds: doomed
				return nil
			})
			if _, ok := err.(*tm.AbortError); !ok {
				t.Errorf("scanner ended with %v, want an abort", err)
			}
			at("after the scanner unwound", readSlack)
		case 1:
			write(th, 3)
			th.Tick(1<<19 - th.Cycles())
			at("parked with two promised reads", readSlack+2*readCharge)
			write(th, 1)
			at("after a peer's doom", readSlack)
		}
	})
}

// TestDoomRevokesPromisedReads pins the revocation of read promises.
// Each thread first caches its lines, then all three meet at cycle t0.
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
