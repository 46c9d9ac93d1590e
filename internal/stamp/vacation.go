package stamp

import (
	"repro/internal/sched"
	"repro/internal/tm"
	"repro/internal/txlib"
)

// Vacation models the online transaction processing system: a travel
// reservation database with car/flight/room relations held in red-black
// trees and customer records in a hash table. A reservation transaction
// browses many items (long tree traversals, a high read ratio) and updates
// the one or two it books. Long read-mostly transactions make vacation an
// ideal SI candidate: the paper measures < 1% of 2PL's aborts and linear
// scaling to 32 threads (§6.3, §6.4).
type Vacation struct {
	TxnsPerThread  int
	ItemsPerTable  int
	QueriesPerTxn  int // items browsed before booking (paper default: ~10)
	ReserveRatio   int // percent of transactions that book (vs pure queries)
	InterTxnCycles uint64

	cars, flights, rooms *txlib.RBTree
	customers            *txlib.Hashtable
}

// NewVacation returns the scaled default configuration.
func NewVacation() *Vacation {
	return &Vacation{TxnsPerThread: 50, ItemsPerTable: 384, QueriesPerTxn: 8, ReserveRatio: 75, InterTxnCycles: 40}
}

// Name implements the harness Workload interface.
func (w *Vacation) Name() string { return "Vacation" }

// Setup implements the harness Workload interface.
func (w *Vacation) Setup(m *txlib.Mem, threads int) {
	w.cars = txlib.NewRBTree(m)
	w.flights = txlib.NewRBTree(m)
	w.rooms = txlib.NewRBTree(m)
	w.customers = txlib.NewHashtable(m, 512)
	keys := make([]uint64, w.ItemsPerTable)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	for _, t := range []*txlib.RBTree{w.cars, w.flights, w.rooms} {
		t.SeedNonTx(keys) // value = key = initial capacity stand-in
	}
}

func (w *Vacation) table(i int) *txlib.RBTree {
	switch i % 3 {
	case 0:
		return w.cars
	case 1:
		return w.flights
	default:
		return w.rooms
	}
}

// Run implements the harness Workload interface.
func (w *Vacation) Run(m *txlib.Mem, th *sched.Thread, bo tm.BackoffConfig) {
	r := th.Rand()
	customer := uint64(th.ID())<<16 | 1
	for i := 0; i < w.TxnsPerThread; i++ {
		th.LocalTick(w.InterTxnCycles)
		reserve := r.Intn(100) < w.ReserveRatio
		// Choose the items to browse up front so retries re-browse
		// the same working set.
		items := make([]int, w.QueriesPerTxn)
		for q := range items {
			items[q] = r.Intn(w.ItemsPerTable) + 1
		}
		kind := r.Intn(3)
		atomicOp(m, th, bo, func(tx tm.Txn) error {
			// Browse: query availability of every item in the
			// working set (pure reads over tree traversals), then
			// book the first available one — as in vacation,
			// clients book the specific items of their own
			// itinerary rather than herding onto a global best.
			// Each lookup reads at least the root, so the lookups
			// still to come reserve their reads; the last lowers the
			// reserve to zero before the booking writes.
			best, bestVal := 0, uint64(0)
			for q, it := range items {
				tx.ReserveReads(len(items) - 1 - q)
				if v, ok := w.table(kind).Lookup(tx, uint64(it)); ok && v > 0 && best == 0 {
					best, bestVal = it, v
				}
			}
			if reserve && best != 0 {
				// Book: decrement capacity, record reservation.
				w.table(kind).Set(tx, uint64(best), bestVal-1)
				w.customers.Add(tx, customer, 1)
			}
			return nil
		})
		customer++
	}
}

// Validate implements the harness Workload interface.
func (w *Vacation) Validate(m *txlib.Mem) string { return "" }
