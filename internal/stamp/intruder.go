package stamp

import (
	"repro/internal/sched"
	"repro/internal/tm"
	"repro/internal/txlib"
)

// Intruder models signature-based network intrusion detection: threads pop
// packet fragments from a shared work queue, then reassemble them in a
// shared session map — a sorted list keyed by flow, as in the original
// application, whose transactions are dominated by traversal reads over
// shared chains with a single fragment-mask write at the end. The paper
// notes intruder "only utilizes transactions to perform concurrent access
// to data structures including a list and a tree which ... perform well
// under SI": the traversals make 2PL and CS abort on read-write conflicts
// while SI only aborts on same-flow or queue-head write-write conflicts
// (§6.3: 50x fewer aborts than 2PL, 40x fewer than CS at 32 threads).
type Intruder struct {
	PacketsPerThread int
	Flows            int    // concurrent flow descriptors
	FragmentsPerFlow int    // fragments to complete a flow
	DecodeCycles     uint64 // non-transactional decode work per packet
	InterTxnCycles   uint64

	queue      *txlib.Queue
	sessions   *txlib.List   // flow id -> fragment mask, traversed per packet
	detections *txlib.Vector // per-thread detection counters, padded
}

// NewIntruder returns the scaled default configuration.
func NewIntruder() *Intruder {
	return &Intruder{PacketsPerThread: 50, Flows: 96, FragmentsPerFlow: 4, DecodeCycles: 350, InterTxnCycles: 30}
}

// Name implements the harness Workload interface.
func (w *Intruder) Name() string { return "Intruder" }

// Setup implements the harness Workload interface.
func (w *Intruder) Setup(m *txlib.Mem, threads int) {
	w.queue = txlib.NewQueue(m)
	w.sessions = txlib.NewList(m)
	w.detections = txlib.NewVector(m, threads, true)
	// Pre-load the packet queue: packets cycle through flows and
	// fragment indices; flows are pre-registered so the session map has
	// realistic traversal depth from the start.
	r := sched.NewRand(4242)
	var flowKeys []uint64
	for f := 1; f <= w.Flows; f++ {
		flowKeys = append(flowKeys, uint64(f))
	}
	w.sessions.SeedNonTx(flowKeys)
	total := w.PacketsPerThread * threads
	pkts := make([]uint64, total)
	for i := range pkts {
		flow := uint64(1 + r.Intn(w.Flows))
		frag := uint64(r.Intn(w.FragmentsPerFlow))
		pkts[i] = flow<<8 | frag
	}
	w.queue.SeedNonTx(pkts)
}

// popBatch is how many packets one queue transaction grabs; batching
// amortises the write-write hot spot on the queue head across several
// packets' worth of work.
const popBatch = 4

// Run implements the harness Workload interface.
func (w *Intruder) Run(m *txlib.Mem, th *sched.Thread, bo tm.BackoffConfig) {
	full := uint64(1)<<w.FragmentsPerFlow - 1
	handled := 0
	for handled < w.PacketsPerThread {
		th.LocalTick(w.InterTxnCycles)
		// Transaction 1: grab a batch of packets from the shared
		// queue.
		var batch []uint64
		atomicOp(m, th, bo, func(tx tm.Txn) error {
			batch = batch[:0]
			for len(batch) < popBatch {
				pkt, ok := w.queue.Pop(tx)
				if !ok {
					break
				}
				batch = append(batch, pkt)
			}
			return nil
		})
		if len(batch) == 0 {
			return // queue drained by other threads
		}
		for _, pkt := range batch {
			handled++
			// Decode the fragment — thread-local work between
			// the transactions, as in the original application.
			th.LocalTick(w.DecodeCycles)
			flow, frag := pkt>>8, pkt&0xff
			// Transaction 2: reassemble — traverse the session
			// list to the flow entry (a long shared read path),
			// merge our fragment bit, and count a detection when
			// the flow completes.
			atomicOp(m, th, bo, func(tx tm.Txn) error {
				// The Set below starts with a read of the list head.
				tx.ReserveReads(1)
				mask, _ := w.sessions.Get(tx, flow)
				tx.ReserveReads(0)
				mask |= 1 << frag
				if mask == full {
					w.sessions.Set(tx, flow, 0)
					w.detections.Add(tx, th.ID(), 1)
				} else {
					w.sessions.Set(tx, flow, mask)
				}
				return nil
			})
		}
	}
}

// Validate implements the harness Workload interface.
func (w *Intruder) Validate(m *txlib.Mem) string { return "" }
