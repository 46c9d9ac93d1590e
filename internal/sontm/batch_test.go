package sontm

import (
	"fmt"
	"reflect"
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

// TestSlackFollowsWriteSet pins the interaction-slack contract SONTM's
// batched accesses rest on: L1Latency from Begin while the write set is
// empty, zero from the first write's charge through commit entry, and
// the read-phase value again once the transaction finishes, by commit or
// by abort. The traced run reads it inside the operations.
func TestSlackFollowsWriteSet(t *testing.T) {
	cfg := DefaultConfig()
	read := cfg.Cache.L1Latency
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
