package tmtest_test

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/tm"
)

// TestNonTxScanMatchesNonTxRead pins the ranged non-transactional scan
// against per-word NonTxRead for every registered engine and each
// Reference* variant, after a transfer workload over lines scattered
// across several pages of the word table (64 lines a page) and of the
// MVM's line table (512 lines a page). On ranges with unaligned bounds
// that straddle pages, visits must ascend, stay in range and be word
// aligned, each visited word must equal NonTxRead, and each skipped word
// must read zero: the contract the OLTP validators rely on.
func TestNonTxScanMatchesNonTxRead(t *testing.T) {
	variants := []struct {
		label string
		opts  tm.EngineOptions
	}{
		{"default", tm.EngineOptions{}},
		{"reference-cache", tm.EngineOptions{ReferenceCache: true}},
		{"reference-sets", tm.EngineOptions{ReferenceSets: true}},
		{"reference-store", tm.EngineOptions{ReferenceStore: true}},
	}
	lines := []int{3, 5, 130, 700, 2100, 2103}
	at := func(l, w int) mem.Addr { return mem.WordAddr(mem.Line(l), w) }
	ranges := [][2]mem.Addr{
		{at(4, 0) + 3, at(2102, 2) + 5}, // unaligned, from a page start's neighbour into the last touched page
		{0, at(5000, 0)},                // the whole span and pages past the spine
		{at(700, 3), at(700, 6)},        // inside one line
		{at(2103, 7), at(2103, 7)},      // empty
	}
	for _, name := range tm.Engines() {
		for _, v := range variants {
			t.Run(name+"/"+v.label, func(t *testing.T) {
				e, err := tm.NewEngine(name, v.opts)
				if err != nil {
					t.Fatalf("constructing %s: %v", name, err)
				}
				for i, l := range lines {
					e.NonTxWrite(at(l, i%mem.WordsPerLine), uint64(100+i))
				}
				sched.New(4, 5).Run(func(th *sched.Thread) {
					r := th.Rand()
					for i := 0; i < 20; i++ {
						src := at(lines[r.Intn(len(lines))], r.Intn(mem.WordsPerLine))
						dst := at(lines[r.Intn(len(lines))], r.Intn(mem.WordsPerLine))
						amount := uint64(1 + r.Intn(50))
						_ = tm.Atomic(e, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
							tx.Write(src, tx.Read(src)-amount)
							tx.Write(dst, tx.Read(dst)+amount)
							return nil
						})
					}
				})
				for _, rg := range ranges {
					checkScan(t, e, rg[0], rg[1])
				}
			})
		}
	}
}

// checkScan compares NonTxScan over [lo, hi) with NonTxRead of every
// word-aligned address in it.
func checkScan(t *testing.T, e tm.Engine, lo, hi mem.Addr) {
	t.Helper()
	visited := make(map[mem.Addr]bool)
	next := lo
	e.NonTxScan(lo, hi, func(a mem.Addr, v uint64) {
		if a < next || a >= hi || a%mem.WordBytes != 0 {
			t.Fatalf("[%#x,%#x): visit %#x out of order, out of range or unaligned (next %#x)", lo, hi, a, next)
		}
		if want := e.NonTxRead(a); v != want {
			t.Fatalf("[%#x,%#x): NonTxScan reports %d at %#x, NonTxRead %d", lo, hi, v, a, want)
		}
		visited[a] = true
		next = a + 1
	})
	nonZero := 0
	for a := (lo + mem.WordBytes - 1) &^ (mem.WordBytes - 1); a < hi; a += mem.WordBytes {
		v := e.NonTxRead(a)
		if v != 0 {
			nonZero++
		}
		if !visited[a] && v != 0 {
			t.Fatalf("[%#x,%#x): NonTxScan skipped %#x, which reads %d", lo, hi, a, v)
		}
	}
	if hi-lo > mem.LineBytes && nonZero == 0 {
		t.Fatalf("[%#x,%#x): no non-zero word; the workload left nothing to scan", lo, hi)
	}
}
