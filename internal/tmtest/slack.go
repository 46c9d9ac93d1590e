package tmtest

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/tm"
)

// SlackCase is one row of the interaction-slack contract: a registered
// engine, traced or not, and the slack it must publish.
type SlackCase struct {
	Name, Engine string
	Traced       bool
	// Read is the read slack and Charge the read charge; AfterWrite is
	// the slack from the first write through commit entry.
	Read, Charge, AfterWrite uint64
	HonoursPromises          bool
}

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

// RunSlackFollowsWriteSet pins the interaction-slack contract batched
// accesses rest on, one subtest per case. From Begin an engine publishes
// its read slack: the cycles before its next access can interact with a
// peer. 2PL and SONTM publish zero from the first write's charge through
// commit entry; SI-TM, whose writes stay private until commit, keeps the
// read slack through its writes and publishes zero only inside the writer
// commit. Every engine publishes the read slack again once the
// transaction finishes, by commit or by abort. While promised reads are
// outstanding an engine that honours promises adds its read charge, the
// smallest charge of one read, per remaining read. A tracer turns
// batching, and with it promises, off; so does SSI-TM, whose reads touch
// shared reader tables. The traced cases also read the slack inside the
// operations. A peer's doom revokes a parked scanner's promise (see
// TestDoomRevokesPromisedReads in internal/twopl and internal/sontm).
func RunSlackFollowsWriteSet(t *testing.T, cases ...SlackCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) { slackFollowsWriteSet(t, c) })
	}
}

func slackFollowsWriteSet(t *testing.T, c SlackCase) {
	read, w := c.Read, c.AfterWrite
	promised := func(n uint64) uint64 {
		if !c.HonoursPromises {
			return read
		}
		return read + n*c.Charge
	}
	e, err := tm.NewEngine(c.Engine, tm.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := &slackProbe{}
	if c.Traced {
		e.SetTracer(p)
	}
	sched.New(1, 1).Run(func(th *sched.Thread) {
		p.th = th
		at := func(when string, want uint64) {
			t.Helper()
			if got := th.Slack(); got != want {
				t.Errorf("%s: slack %d, want %d", when, got, want)
			}
		}
		commit := func(tx tm.Txn) {
			t.Helper()
			if err := tx.Commit(); err != nil {
				t.Fatalf("commit: %v", err)
			}
		}
		tx := e.Begin(th)
		at("at Begin", read)
		tx.Read(line(1))
		at("after a read", read)
		tx.Write(line(2), 1)
		at("after the first write", w)
		tx.Read(line(3))
		at("at commit entry", w)
		commit(tx)
		at("after commit", read)
		tx = e.Begin(th)
		tx.Write(line(4), 1)
		tx.Abort()
		at("after abort", read)
		tx = e.Begin(th)
		tx.Read(line(4))
		commit(tx)
		at("after a read-only commit", read)
		tx = e.Begin(th)
		tx.PromiseReads(3)
		at("after promising three reads", promised(3))
		tx.Read(line(5))
		at("after the first promised read", promised(2))
		tx.Read(line(6))
		tx.Read(line(7))
		at("after the last promised read", promised(0))
		tx.Write(line(8), 1)
		commit(tx)
		at("after a commit that kept its promise", read)
		tx = e.Begin(th)
		tx.PromiseReads(1)
		tx.Read(line(5))
		tx.Abort()
		at("after an abort that kept its promise", read)
	})
	if !c.Traced {
		return
	}
	r, wr := fmt.Sprint(read), fmt.Sprint(w)
	want := []string{
		"begin=" + r, "read=" + r, "write=" + wr, "read=" + wr, "commit=" + r,
		"begin=" + r, "write=" + wr, "abort=" + r,
		"begin=" + r, "read=" + r, "commit=" + r,
		"begin=" + r, "read=" + r, "read=" + r, "read=" + r, "write=" + wr, "commit=" + r,
		"begin=" + r, "read=" + r, "abort=" + r,
	}
	if !reflect.DeepEqual(p.got, want) {
		t.Errorf("slack inside operations:\n got %v\nwant %v", p.got, want)
	}
}
