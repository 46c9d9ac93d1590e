package tmtest

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/tm"
)

// The per-transaction hot paths — Read, Write and Commit — run once per
// simulated access and once per transaction across every figure sweep, so
// they must be allocation-free in steady state: access sets and write
// logs keep their capacity when a transaction finishes, reader records
// live in paged tables, and transaction objects recycle per thread.
// hotPaths is the one table of regimes, every engine built through the
// registry. "hit" is the repeat-access fast path. "batched" runs 2PL's
// and SONTM's reads inside a batched quantum, on the batched charge path.
// "conflict" keeps each engine's conflict machinery busy on every
// operation: SSI-TM's visible-reader records and commit-time writer
// check; 2PL's requester-wins probe and doom, which dooms the bystander
// idempotently; SONTM's interval raise on reads of committed lines and
// the commit broadcast's probe of a live reader.
// RunTxnHotPathsAllocFree pins 0 allocations per transaction for every
// leaf of the engines it is given; BenchHotPaths times them.
var hotPaths = []hotPath{
	{"TxnRead", "SI-TM", "hit", 8, single},
	{"TxnRead", "SSI-TM", "conflict", 64, single},
	{"TxnRead", "2PL", "hit", 8, single},
	{"TxnRead", "2PL", "batched", 8, batching},
	{"TxnRead", "2PL", "conflict", 8, bystander(writeLines)},
	{"TxnRead", "SONTM", "hit", 8, single},
	{"TxnRead", "SONTM", "batched", 8, batching},
	{"TxnRead", "SONTM", "conflict", 8, committed},

	{"TxnWrite", "SI-TM", "hit", 8, single},
	{"TxnWrite", "SSI-TM", "conflict", 8, bystander(readLines)},
	{"TxnWrite", "2PL", "hit", 8, single},
	{"TxnWrite", "2PL", "conflict", 8, bystander(readLines)},
	{"TxnWrite", "SONTM", "hit", 8, single},
	{"TxnWrite", "SONTM", "conflict", 8, bystander(readLines)},

	{"Commit", "SI-TM", "hit", 4, single},
	{"Commit", "SSI-TM", "conflict", 4, bystander(readLines)},
	{"Commit", "2PL", "hit", 4, single},
	{"Commit", "2PL", "conflict", 4, bystander(readLines)},
	{"Commit", "SONTM", "hit", 4, single},
	{"Commit", "SONTM", "conflict", 4, bystander(readLines)},
}

// hotPath is one leaf: a path on a registered engine in a regime over
// spread lines, simulated by drive.
type hotPath struct {
	path, engine, regime string
	spread               int
	drive                func(tb testing.TB, e tm.Engine, spread int, body func(th *sched.Thread))
}

// txnOps is the number of accesses in one TxnRead or TxnWrite
// transaction: long enough to amortise Begin and Commit in the
// benchmarks' per-access ns/op.
const txnOps = 256

func line(i int) mem.Addr { return mem.Addr((1 + i) * mem.LineBytes) }

// ops is the number of benchmark operations in one transaction: an
// access for TxnRead and TxnWrite, the whole transaction for Commit.
func (h hotPath) ops() int {
	if h.path == "Commit" {
		return 1
	}
	return txnOps
}

// txn runs one transaction of n operations, the first numbered i: reads
// or writes cycling over the spread lines, or for Commit a write of
// every line.
func (h hotPath) txn(tb testing.TB, e tm.Engine, th *sched.Thread, i, n int) {
	tx := e.Begin(th)
	for op := i; op < i+n; op++ {
		switch h.path {
		case "TxnRead":
			tx.Read(line(op % h.spread))
		case "TxnWrite":
			tx.Write(line(op%h.spread), uint64(op))
		case "Commit":
			for l := 0; l < h.spread; l++ {
				tx.Write(line(l), uint64(op))
			}
		}
	}
	if err := tx.Commit(); err != nil {
		tb.Fatalf("%s commit: %v", h.engine, err)
	}
}

func (h hotPath) engineFor(tb testing.TB) tm.Engine {
	e, err := tm.NewEngine(h.engine, tm.EngineOptions{})
	if err != nil {
		tb.Fatalf("constructing %s: %v", h.engine, err)
	}
	return e
}

// bench times b.N operations after one warm-up transaction.
func (h hotPath) bench(b *testing.B) {
	e := h.engineFor(b)
	h.drive(b, e, h.spread, func(th *sched.Thread) {
		h.txn(b, e, th, 0, h.ops())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += h.ops() {
			h.txn(b, e, th, i, min(h.ops(), b.N-i))
		}
		b.StopTimer()
	})
}

// BenchHotPaths runs one <engine>/<regime> sub-benchmark per leaf of
// path ("TxnRead", "TxnWrite" or "Commit"). ns/op is per access for
// TxnRead and TxnWrite and per transaction for Commit.
func BenchHotPaths(b *testing.B, path string) {
	for _, h := range hotPaths {
		if h.path == path {
			b.Run(h.engine+"/"+h.regime, h.bench)
		}
	}
}

// RunTxnHotPathsAllocFree counts the allocations of one whole
// transaction, measured inside the simulated thread after
// testing.AllocsPerRun's one warm-up transaction, and requires 0 for
// every leaf of the named engines. Counting per transaction, not per
// access, also catches an allocation made once per Begin or Commit.
func RunTxnHotPathsAllocFree(t *testing.T, engines ...string) {
	t.Helper()
	ran := 0
	for _, h := range hotPaths {
		if !contains(engines, h.engine) {
			continue
		}
		ran++
		t.Run(h.path+"/"+h.engine+"/"+h.regime, func(t *testing.T) {
			e := h.engineFor(t)
			h.drive(t, e, h.spread, func(th *sched.Thread) {
				i := 0
				allocs := testing.AllocsPerRun(200, func() {
					h.txn(t, e, th, i, h.ops())
					i += h.ops()
				})
				if allocs != 0 {
					t.Errorf("%v allocs per transaction, want 0", allocs)
				}
			})
		})
	}
	if ran == 0 {
		t.Fatalf("no hot-path leaves for engines %v", engines)
	}
}

func contains(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// single drives body as the only thread of a simulation.
func single(_ testing.TB, _ tm.Engine, _ int, body func(th *sched.Thread)) {
	sched.New(1, 1).Run(body)
}

// committed is single after one committed write of the spread lines, so
// that reads of them find committed writers.
func committed(tb testing.TB, e tm.Engine, spread int, body func(th *sched.Thread)) {
	single(tb, e, spread, func(th *sched.Thread) {
		if err := tm.RunOnce(e, th, func(tx tm.Txn) error {
			writeLines(tx, spread)
			return nil
		}); err != nil {
			tb.Fatalf("seed commit: %v", err)
		}
		body(th)
	})
}

// batching drives body on thread 0 inside a batched quantum: thread 1
// publishes an unbounded slack and, whenever it runs, parks one cycle
// past thread 0, so thread 0's batchable charges overshoot its inline
// bound but stay below the horizon and return inline. Begins and commits
// still yield once each.
func batching(tb testing.TB, _ tm.Engine, _ int, body func(th *sched.Thread)) {
	s := sched.New(2, 1)
	done := false
	s.Run(func(th *sched.Thread) {
		if th.ID() == 1 {
			th.SetSlack(1 << 60)
			for lead := s.Thread(0); !done; {
				th.Tick(lead.Cycles() + 1 - th.Cycles())
			}
			return
		}
		body(th)
		done = true
	})
	if s.Stats().BatchedEvents == 0 {
		tb.Fatalf("no batched events: %+v", s.Stats())
	}
}

// bystander drives body on thread 0 while thread 1 holds one transaction
// open across the whole measured region: it begins, touches the spread
// lines with touch, then sleeps past every cycle thread 0 can reach. It
// aborts once thread 0 finishes.
func bystander(touch func(tx tm.Txn, spread int)) func(testing.TB, tm.Engine, int, func(*sched.Thread)) {
	return func(_ testing.TB, e tm.Engine, spread int, body func(th *sched.Thread)) {
		sched.New(2, 1).Run(func(th *sched.Thread) {
			if th.ID() == 1 {
				by := e.Begin(th)
				touch(by, spread)
				th.Tick(1 << 62)
				by.Abort()
				return
			}
			th.Tick(1 << 16) // past the bystander's touches
			body(th)
		})
	}
}

func readLines(tx tm.Txn, spread int) {
	for i := 0; i < spread; i++ {
		tx.Read(line(i))
	}
}

func writeLines(tx tm.Txn, spread int) {
	for i := 0; i < spread; i++ {
		tx.Write(line(i), uint64(i))
	}
}
