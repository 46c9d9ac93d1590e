package oltp_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/oltp"
)

// directZeta is the reference zeta sum, written out independently of the
// package: ascending ranks, one math.Pow each.
func directZeta(n uint64, theta float64) float64 {
	var s float64
	for i := uint64(1); i <= n; i++ {
		s += math.Pow(float64(i), -theta)
	}
	return s
}

// TestZetaMemoBitIdentical pins that memoising the zeta sum moves no
// simulated bit: the memo's value equals a direct sum bit for bit, on
// the first and on a repeated lookup. theta 0.5 takes math.Pow's 1/Sqrt
// special case; 2²⁰ is the serving span.
func TestZetaMemoBitIdentical(t *testing.T) {
	for _, n := range []uint64{1, 2, 4097, 1 << 20} {
		for _, theta := range []float64{0, 0.5, 0.9, 0.99} {
			want := math.Float64bits(directZeta(n, theta))
			for rep := 0; rep < 2; rep++ {
				if got := math.Float64bits(oltp.NewZipf(n, theta).Zetan()); got != want {
					t.Fatalf("n=%d theta=%v lookup %d: zetan bits %#x, direct sum %#x", n, theta, rep, got, want)
				}
			}
		}
	}
}

// TestZetaMemoRepeatIsFree pins that only the first NewZipf for a key
// pays the O(n) sum.
func TestZetaMemoRepeatIsFree(t *testing.T) {
	const n, theta = 1 << 16, 0.61
	oltp.ResetZetaMemo()
	before := oltp.ZetaSums()
	oltp.NewZipf(n, theta)
	if d := oltp.ZetaSums() - before; d != 1 {
		t.Fatalf("first NewZipf for a fresh key ran %d sums, want 1", d)
	}
	for i := 0; i < 10; i++ {
		oltp.NewZipf(n, theta)
	}
	if d := oltp.ZetaSums() - before; d != 1 {
		t.Fatalf("ten repeat NewZipf calls ran %d more sums, want 0", d-1)
	}
}

// TestZetaMemoConcurrentFirstUse starts several goroutines on a fresh key
// at once: they must sum it exactly once and all see the same value (run
// under -race, this also checks the memo's locking).
func TestZetaMemoConcurrentFirstUse(t *testing.T) {
	const n, theta, workers = 1 << 18, 0.73, 8
	oltp.ResetZetaMemo()
	before := oltp.ZetaSums()
	start := make(chan struct{})
	got := make([]float64, workers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = oltp.NewZipf(n, theta).Zetan()
		}()
	}
	close(start)
	wg.Wait()
	if d := oltp.ZetaSums() - before; d != 1 {
		t.Fatalf("%d concurrent first uses ran %d sums, want 1", workers, d)
	}
	want := directZeta(n, theta)
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("worker %d: zetan %v, direct sum %v", i, v, want)
		}
	}
}

// TestZetaMemoBounded fills the memo past its bound: it keeps at most
// MaxZetaMemo sums, keys past the bound are summed on every use, and
// their values are still exact.
func TestZetaMemoBounded(t *testing.T) {
	oltp.ResetZetaMemo()
	defer oltp.ResetZetaMemo()
	const keys = oltp.MaxZetaMemo + 4
	for n := uint64(1); n <= keys; n++ {
		oltp.NewZipf(n, 0.9)
	}
	if got := oltp.ZetaMemoLen(); got != oltp.MaxZetaMemo {
		t.Fatalf("memo holds %d sums after %d keys, want the bound %d", got, keys, oltp.MaxZetaMemo)
	}
	before := oltp.ZetaSums()
	kept := oltp.NewZipf(1, 0.9).Zetan()
	if d := oltp.ZetaSums() - before; d != 0 {
		t.Fatalf("a kept key ran %d sums", d)
	}
	dropped := oltp.NewZipf(keys, 0.9).Zetan()
	if d := oltp.ZetaSums() - before; d != 1 {
		t.Fatalf("a key past the bound ran %d sums, want 1", d)
	}
	if math.Float64bits(kept) != math.Float64bits(directZeta(1, 0.9)) ||
		math.Float64bits(dropped) != math.Float64bits(directZeta(keys, 0.9)) {
		t.Fatal("memo bound changed a sum")
	}
}
