package twopl

import (
	"fmt"
	"reflect"
	"repro/internal/tm"
	"testing"

	"repro/internal/mem"
	"repro/internal/sched"
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

// TestSlackFollowsWriteSet pins the interaction-slack contract 2PL's
// batched reads rest on: L1Latency + BroadcastCost from Begin while the
// write set is empty, zero from the first write's charge through commit
// entry, and the read-phase value again once the transaction finishes,
// by commit or by abort. The traced run reads it inside the operations.
func TestSlackFollowsWriteSet(t *testing.T) {
	cfg := DefaultConfig()
	read := cfg.Cache.L1Latency + cfg.BroadcastCost
	for _, traced := range []bool{false, true} {
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
		})
		if !traced {
			continue
		}
		r, z := fmt.Sprint(read), "0"
		want := []string{
			"begin=" + r, "read=" + r, "write=" + z, "read=" + z, "commit=" + r,
			"begin=" + r, "write=" + z, "abort=" + r,
			"begin=" + r, "read=" + r, "commit=" + r,
		}
		if !reflect.DeepEqual(p.got, want) {
			t.Errorf("slack inside operations:\n got %v\nwant %v", p.got, want)
		}
	}
}

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
