// Package oltp implements the serving-workload tier: a seeded Zipfian key
// generator, a tiny-transaction KV workload and a million-account
// bank/ledger, both read-mostly sessions punctuated by long analytical
// read-only scans — the regime where snapshot isolation's headline
// advantage (long read-only transactions never abort writers, §1) pays
// off at scale. Workloads satisfy the harness Workload interface
// structurally, exactly like internal/micro and internal/stamp.
package oltp

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
)

// Zipf draws ranks in [0, n) with P(rank) ∝ 1/(rank+1)^theta — the Gray
// et al. "Quickly generating billion-record synthetic databases" formula
// YCSB popularised. All randomness comes from the caller's *sched.Rand,
// so draws are deterministic per simulated thread; the precomputed
// constants are pure functions of (n, theta).
//
// Ranks map to keys directly (rank 0 is the hottest key): scrambling the
// ranks across the key space, as YCSB does, would deliberately destroy
// locality — here the contiguous hot head is the point, letting the
// paged memory tier keep the footprint proportional to the touched
// pages while the address span stays serving-scale.
type Zipf struct {
	n      uint64
	theta  float64
	alpha  float64
	zetan  float64
	eta    float64
	thresh float64 // 1 + 0.5^theta, the two-element fast path bound
}

// ValidateTheta checks the skew parameter up front: the Gray formula
// needs theta in [0, 1) (theta = 0 is uniform; 1 diverges). Negative
// zero is rejected too: it simulates exactly as 0 but would name a
// distinct cell ("kv@-0.00").
func ValidateTheta(theta float64) error {
	if math.IsNaN(theta) || math.Signbit(theta) || theta >= 1 {
		return fmt.Errorf("oltp: theta must be in [0, 1), got %g", theta)
	}
	return nil
}

// NewZipf prepares a generator over n ranks with skew theta. It panics on
// invalid parameters — callers validate user input with ValidateTheta.
// Preparation is O(1) apart from the zeta sum, which is O(n) the first
// time a process asks for (n, theta) and a memo lookup after that (see
// zetaN); the generator itself is O(1) per draw and immutable, so one
// Zipf is safely shared by every simulated thread of a cell.
func NewZipf(n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("oltp: NewZipf with zero ranks")
	}
	if err := ValidateTheta(theta); err != nil {
		panic(err.Error())
	}
	z := &Zipf{n: n, theta: theta, zetan: zetaN(n, theta)}
	zeta2 := 1.0
	if n >= 2 {
		zeta2 += math.Pow(2, -theta)
	}
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	z.thresh = 1 + math.Pow(0.5, theta)
	return z
}

// maxZetaMemo caps how many (n, theta) sums the process keeps. A sweep
// asks for one per distinct span and skew — figure-oltp's grid needs
// three, since kv and ledger share the 2²⁰ span — so the cap never forces
// a recomputation in practice; it only stops a caller that scans many
// spans or skews from growing the memo without bound. Past the cap, sums
// are computed and not kept.
const maxZetaMemo = 64

// zetaKey identifies one zeta sum. theta is keyed by its bits, so the
// memo never conflates two distinct float64 skews.
type zetaKey struct {
	n     uint64
	theta uint64
}

// zetaEntry is one memoised sum, computed at most once.
type zetaEntry struct {
	once sync.Once
	v    float64
}

// zetaMemo holds the process's zeta sums. The mutex guards only the map;
// each entry's sum runs under its own sync.Once, so workers that want
// the same key wait for one computation while different keys sum in
// parallel.
var zetaMemo struct {
	mu sync.Mutex
	m  map[zetaKey]*zetaEntry
}

// zetaSums counts full O(n) sums, so tests can pin that a repeated
// NewZipf does none.
var zetaSums atomic.Uint64

// zetaN returns sum_{i=1..n} i^-theta from the process-wide memo,
// computing it on first use. The value is bit-identical to summing
// inline: the one computation is the same sequential loop in the same
// order, and a float64 read back from the memo is the float64 written.
func zetaN(n uint64, theta float64) float64 {
	k := zetaKey{n: n, theta: math.Float64bits(theta)}
	zetaMemo.mu.Lock()
	e := zetaMemo.m[k]
	if e == nil {
		if len(zetaMemo.m) >= maxZetaMemo {
			zetaMemo.mu.Unlock()
			return zetaSum(n, theta)
		}
		if zetaMemo.m == nil {
			zetaMemo.m = make(map[zetaKey]*zetaEntry)
		}
		e = &zetaEntry{}
		zetaMemo.m[k] = e
	}
	zetaMemo.mu.Unlock()
	e.once.Do(func() { e.v = zetaSum(n, theta) })
	return e.v
}

// zetaSum is the O(n) zeta sum itself, in ascending rank order.
func zetaSum(n uint64, theta float64) float64 {
	zetaSums.Add(1)
	var s float64
	for i := uint64(1); i <= n; i++ {
		s += math.Pow(float64(i), -theta)
	}
	return s
}

// Next draws the next rank in [0, n) using r.
func (z *Zipf) Next(r *sched.Rand) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.thresh {
		return 1
	}
	rank := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if rank >= z.n {
		rank = z.n - 1
	}
	return rank
}
