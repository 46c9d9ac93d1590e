package tmtest

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
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
// transaction finishes, by commit or by abort. While promised or
// reserved reads are outstanding an engine that honours promises adds
// its read charge, the smallest charge of one read, per outstanding
// read: reads spend promised reads, not reserved ones, and a promise
// never lowers an outstanding count. A tracer turns batching, and with
// it promises and reserves, off; so does SSI-TM, whose reads touch
// shared reader tables. A second thread, stepping one cycle at a time,
// checks the slack at every park inside a read, and each read must park; the traced cases also
// read it inside every operation. A peer's doom revokes a parked
// scanner's promise and reserve (see TestDoomRevokesPromisedReads in
// internal/twopl and internal/sontm).
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
	// inRead names the read thread 0 is inside, and parkWant the slack
	// it must publish at any park there; unparked lists the reads in
	// which the observer has not yet found it parked.
	var inRead string
	var parkWant uint64
	unparked := map[string]bool{}
	done := false
	s := sched.New(2, 1)
	s.Run(func(th *sched.Thread) {
		if th.ID() == 1 {
			for !done {
				if inRead != "" {
					delete(unparked, inRead)
					if got := s.Thread(0).Slack(); got != parkWant {
						t.Errorf("parked inside the read %s: slack %d, want %d", inRead, got, parkWant)
					}
				}
				th.Tick(1)
			}
			return
		}
		defer func() { done = true }()
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
		// readAt reads line i, whose parks must publish want, as must
		// the thread after the read.
		readAt := func(tx tm.Txn, when string, i int, want uint64) {
			t.Helper()
			inRead, parkWant = when, want
			unparked[when] = true
			tx.Read(line(i))
			inRead = ""
			at(when, want)
		}
		tx := e.Begin(th)
		at("at Begin", read)
		readAt(tx, "a read", 1, read)
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
		readAt(tx, "a read-only transaction's read", 4, read)
		commit(tx)
		at("after a read-only commit", read)
		tx = e.Begin(th)
		tx.PromiseReads(3)
		at("after promising three reads", promised(3))
		readAt(tx, "the first promised read", 5, promised(2))
		readAt(tx, "the second promised read", 6, promised(1))
		readAt(tx, "the last promised read", 7, promised(0))
		tx.Write(line(8), 1)
		commit(tx)
		at("after a commit that kept its promise", read)
		tx = e.Begin(th)
		tx.PromiseReads(1)
		readAt(tx, "a read promised before an abort", 5, read)
		tx.Abort()
		at("after an abort that kept its promise", read)
		tx = e.Begin(th)
		tx.ReserveReads(2)
		at("after reserving two reads", promised(2))
		tx.PromiseReads(3)
		at("after promising three reads on the reserve", promised(5))
		tx.PromiseReads(1)
		at("after a smaller promise", promised(5))
		readAt(tx, "the first read promised on the reserve", 9, promised(4))
		tx.PromiseReads(1)
		at("after a smaller promise with reads outstanding", promised(4))
		readAt(tx, "the second read promised on the reserve", 10, promised(3))
		readAt(tx, "the last read promised on the reserve", 11, promised(2))
		readAt(tx, "a read past the promise", 12, promised(2))
		tx.ReserveReads(1)
		at("after lowering the reserve to one", promised(1))
		readAt(tx, "a read on a reserve of one", 13, promised(1))
		tx.ReserveReads(0)
		at("after dropping the reserve", promised(0))
		tx.Write(line(14), 1)
		commit(tx)
		at("after a commit that kept its reserve", read)
		tx = e.Begin(th)
		tx.ReserveReads(1)
		readAt(tx, "a read on a reserve before an abort", 9, promised(1))
		tx.ReserveReads(0)
		tx.Abort()
		at("after an abort that kept its reserve", read)
	})
	for _, when := range slices.Sorted(maps.Keys(unparked)) {
		t.Errorf("the observer never found thread 0 parked inside %s", when)
	}
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
		"begin=" + r, "read=" + r, "read=" + r, "read=" + r, "read=" + r, "read=" + r, "write=" + wr, "commit=" + r,
		"begin=" + r, "read=" + r, "abort=" + r,
	}
	if !reflect.DeepEqual(p.got, want) {
		t.Errorf("slack inside operations:\n got %v\nwant %v", p.got, want)
	}
}
