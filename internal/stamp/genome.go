package stamp

import (
	"repro/internal/sched"
	"repro/internal/tm"
	"repro/internal/txlib"
)

// Genome models the gene-sequencing application: phase one deduplicates
// DNA segments by inserting them into a shared hash set; phase two matches
// overlapping segments, probing the table for several candidate suffixes
// (a read-heavy scan) and recording at most one link. Conflicts are
// read-write on bucket chains almost everywhere, which is why both CS and
// SI cut aborts dramatically over 2PL and end up on par (§6.3).
type Genome struct {
	Segments       int // segments handled per thread
	KeySpace       int // distinct segment identifiers
	Buckets        int
	ProbesPerMatch int // table probes per match transaction
	InterTxnCycles uint64

	table   *txlib.Hashtable
	links   *txlib.Vector
	barrier *sched.Barrier
}

// NewGenome returns the scaled default configuration.
func NewGenome() *Genome {
	return &Genome{Segments: 60, KeySpace: 2048, Buckets: 128, ProbesPerMatch: 12, InterTxnCycles: 30}
}

// Name implements the harness Workload interface.
func (g *Genome) Name() string { return "Genome" }

// Setup implements the harness Workload interface.
func (g *Genome) Setup(m *txlib.Mem, threads int) {
	g.table = txlib.NewHashtable(m, g.Buckets)
	g.links = txlib.NewVector(m, g.KeySpace, true)
	g.barrier = sched.NewBarrier(threads)
}

// Run implements the harness Workload interface.
func (g *Genome) Run(m *txlib.Mem, th *sched.Thread, bo tm.BackoffConfig) {
	r := th.Rand()
	// Phase 1: segment deduplication — insert-if-absent transactions.
	for i := 0; i < g.Segments; i++ {
		th.LocalTick(g.InterTxnCycles)
		seg := uint64(1 + r.Intn(g.KeySpace))
		atomicOp(m, th, bo, func(tx tm.Txn) error {
			g.table.Insert(tx, seg, seg)
			return nil
		})
	}
	// The matching phase begins only after every thread finished
	// deduplicating, as in the original application's phase barrier.
	g.barrier.Wait(th)
	// Phase 2: overlap matching — probe several candidate suffixes
	// (reads), then record one link (single write).
	for i := 0; i < g.Segments; i++ {
		th.LocalTick(g.InterTxnCycles)
		seg := uint64(1 + r.Intn(g.KeySpace))
		atomicOp(m, th, bo, func(tx tm.Txn) error {
			// Each probe reads at least its bucket head, so the probes
			// still to come reserve their reads; the last lowers the
			// reserve to zero before the link write.
			var match uint64
			for p := 0; p < g.ProbesPerMatch; p++ {
				tx.ReserveReads(g.ProbesPerMatch - 1 - p)
				cand := uint64(1 + (int(seg)+p*31)%g.KeySpace)
				if g.table.Contains(tx, cand) {
					match = cand
				}
			}
			if match != 0 {
				g.links.Set(tx, int(seg)%g.KeySpace, match)
			}
			return nil
		})
	}
}

// Validate implements the harness Workload interface.
func (g *Genome) Validate(m *txlib.Mem) string { return "" }
