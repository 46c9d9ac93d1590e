package aset

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// TestLineSetMatchesMap drives a line set (a LineMap[struct{}], as SI-TM
// keeps its promoted and read lines) in the open-addressing mode and in
// the map-backed reference mode with the same random stream — adds,
// membership probes and periodic resets over a skewed key range — and
// requires identical answers at every step plus identical
// first-insertion order. This is the property the engines'
// byte-identical figures rest on: the open-addressing table must be
// observably a map with deterministic iteration order.
func TestLineSetMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		var s, ref LineMap[struct{}]
		ref.SetReference()
		for op := 0; op < 20000; op++ {
			// Mixed key ranges: a hot dense region (collision-heavy
			// after masking) and a sparse tail, including line 0.
			l := mem.Line(r.Intn(64))
			if r.Intn(4) == 0 {
				l = mem.Line(r.Uint64() >> 34)
			}
			switch r.Intn(8) {
			case 0: // reset
				s.Reset()
				ref.Reset()
			case 1, 2: // membership probe
				if got, want := s.Has(l), ref.Has(l); got != want {
					t.Fatalf("seed %d op %d: Has(%d) = %v, want %v", seed, op, l, got, want)
				}
			default: // add
				_, got := s.Put(l)
				if _, want := ref.Put(l); got != want {
					t.Fatalf("seed %d op %d: Put(%d) inserted = %v, want %v", seed, op, l, got, want)
				}
			}
			if s.Len() != ref.Len() {
				t.Fatalf("seed %d op %d: Len = %d, want %d", seed, op, s.Len(), ref.Len())
			}
		}
		lines, want := s.Lines(), ref.Lines()
		if len(lines) != len(want) {
			t.Fatalf("seed %d: order length %d, want %d", seed, len(lines), len(want))
		}
		for i := range lines {
			if lines[i] != want[i] {
				t.Fatalf("seed %d: Lines()[%d] = %d, want %d (insertion order broken)", seed, i, lines[i], want[i])
			}
		}
	}
}

// TestWriteLogMatchesMap drives a WriteLog in the open-addressing mode
// and one in the reference mode with the same random stream of stores,
// loads and resets, checking line membership, first-write line order,
// each line's buffered words, and load answers word-exact against the
// buffered line's mask and words.
func TestWriteLogMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		var w, ref WriteLog
		ref.SetReference()
		for op := 0; op < 20000; op++ {
			a := mem.Addr(r.Intn(512) * mem.WordBytes)
			switch r.Intn(8) {
			case 0: // reset
				w.Reset()
				ref.Reset()
			case 1, 2, 3: // load
				line := mem.LineOf(a)
				var want uint64
				wok := false
				if lw, ok := ref.Line(line); ok && lw.Mask&(1<<mem.WordOf(a)) != 0 {
					want, wok = lw.Words[mem.WordOf(a)], true
				}
				for _, l := range []*WriteLog{&w, &ref} {
					if got, ok := l.Load(a); ok != wok || got != want {
						t.Fatalf("seed %d op %d: Load(%d) = %d,%v want %d,%v", seed, op, a, got, ok, want, wok)
					}
				}
				if w.Has(line) != ref.Has(line) {
					t.Fatalf("seed %d op %d: Has(%d) = %v, want %v", seed, op, line, w.Has(line), ref.Has(line))
				}
			default: // store
				v := r.Uint64()
				first := w.Store(a, v)
				if want := ref.Store(a, v); first != want {
					t.Fatalf("seed %d op %d: Store(%d) first = %v, want %v", seed, op, a, first, want)
				}
			}
		}
		lines := w.Lines()
		if len(lines) != ref.Len() {
			t.Fatalf("seed %d: %d lines, want %d", seed, len(lines), ref.Len())
		}
		for i, l := range lines {
			rl, want := ref.At(i)
			if l != rl {
				t.Fatalf("seed %d: Lines()[%d] = %d, want %d", seed, i, l, rl)
			}
			gl, ok := w.Line(l)
			if !ok {
				t.Fatalf("seed %d: Line(%d) missing", seed, l)
			}
			al, ap := w.At(i)
			if al != l || ap != gl {
				t.Fatalf("seed %d: At(%d) = (%d,%p), want (%d,%p)", seed, i, al, ap, l, gl)
			}
			if *gl != *want {
				t.Fatalf("seed %d: line %d buffers %+v, want %+v", seed, l, *gl, *want)
			}
		}
	}
}

// TestLineMapValuesSurviveGrowth pins the value lane across rehashes (and
// the reference mode's slab appends): entries inserted before several
// growth rounds keep their values.
func TestLineMapValuesSurviveGrowth(t *testing.T) {
	for _, reference := range []bool{false, true} {
		var m LineMap[uint64]
		if reference {
			m.SetReference()
		}
		const n = 1000
		for i := 0; i < n; i++ {
			v, first := m.Put(mem.Line(i * 7))
			if !first {
				t.Fatalf("reference=%v line %d: duplicate insert", reference, i*7)
			}
			*v = uint64(i) + 1
		}
		for i := 0; i < n; i++ {
			v, ok := m.Get(mem.Line(i * 7))
			if !ok || *v != uint64(i)+1 {
				t.Fatalf("reference=%v line %d: value lost across growth (got %v, ok %v)", reference, i*7, v, ok)
			}
		}
	}
}

// TestResetKeepsCapacity proves the recycling contract in both modes:
// after a Reset, a transaction-sized reuse of the set allocates nothing
// and observes a pristine value lane.
func TestResetKeepsCapacity(t *testing.T) {
	for _, reference := range []bool{false, true} {
		var s LineMap[struct{}]
		var w WriteLog
		if reference {
			s.SetReference()
			w.SetReference()
		}
		for i := 0; i < 128; i++ {
			s.Put(mem.Line(i))
			w.Store(mem.WordAddr(mem.Line(i), i%mem.WordsPerLine), uint64(i))
		}
		s.Reset()
		w.Reset()
		if s.Len() != 0 || w.Len() != 0 {
			t.Fatalf("reference=%v: Reset left %d/%d entries", reference, s.Len(), w.Len())
		}
		if got, ok := w.Load(mem.WordAddr(3, 3)); ok {
			t.Fatalf("reference=%v: Reset left a loadable word: %d", reference, got)
		}
		allocs := testing.AllocsPerRun(100, func() {
			for i := 0; i < 128; i++ {
				s.Put(mem.Line(i))
				w.Store(mem.WordAddr(mem.Line(i), i%mem.WordsPerLine), uint64(i))
			}
			for i := 0; i < 128; i++ {
				if !s.Has(mem.Line(i)) {
					t.Fatal("lost line after reset")
				}
			}
			s.Reset()
			w.Reset()
		})
		if allocs != 0 {
			t.Errorf("reference=%v: reused set allocates %v allocs/op, want 0", reference, allocs)
		}
	}
}

// TestSignatureRejectsWithoutProbe checks the Bloom fast path is wired:
// an empty set with a nil table answers Has without touching table
// memory (no panic, no allocation), and a populated signature never
// produces a false negative.
func TestSignatureRejectsWithoutProbe(t *testing.T) {
	var s LineMap[struct{}]
	if s.Has(42) {
		t.Fatal("empty set claims membership")
	}
	r := rand.New(rand.NewSource(7))
	var added []mem.Line
	for i := 0; i < 300; i++ {
		l := mem.Line(r.Uint64() >> 40)
		s.Put(l)
		added = append(added, l)
	}
	for _, l := range added {
		if !s.Has(l) {
			t.Fatalf("false negative for %d", l)
		}
	}
}

// liveEntry is the engines' liveness shape: epoch match plus a finished
// flag on the object.
type fakeTxn struct {
	epoch    uint64
	finished bool
}

func liveFake(t *fakeTxn, epoch uint64) bool { return t.epoch == epoch && !t.finished }

// TestReadersEpochValidation pins the reader-list semantics: records go
// stale when the transaction finishes or its object is recycled (epoch
// bump), compaction removes exactly the stale records, and CompactAdd
// after recycling leaves one live record.
func TestReadersEpochValidation(t *testing.T) {
	var r Readers[*fakeTxn]
	a := &fakeTxn{epoch: 1}
	b := &fakeTxn{epoch: 1}
	c := &fakeTxn{epoch: 1}
	r.CompactAdd(a, a.epoch, liveFake)
	r.CompactAdd(b, b.epoch, liveFake)
	r.CompactAdd(c, c.epoch, liveFake)
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}

	b.finished = true  // finished: record stale
	c.epoch++          // recycled: record stale
	c.finished = false // even though the new incarnation is unfinished

	live := 0
	for _, e := range r.Entries() {
		if liveFake(e.Tx, e.Epoch) {
			live++
			if e.Tx != a {
				t.Fatalf("wrong live record %+v", e.Tx)
			}
		}
	}
	if live != 1 {
		t.Fatalf("%d live records, want 1", live)
	}

	r.Compact(liveFake)
	if r.Len() != 1 || r.Entries()[0].Tx != a {
		t.Fatalf("Compact kept %d records", r.Len())
	}

	// The recycled object re-reads the line: its stale record is gone,
	// so CompactAdd leaves exactly one live record for it.
	r.CompactAdd(c, c.epoch, liveFake)
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("Reset left %d records", r.Len())
	}
}

// BenchmarkLineSet measures the membership probes SI-TM issues on a line
// set (a LineMap[struct{}]): a signature-rejected miss (the overwhelmingly
// common case) and a table hit.
func BenchmarkLineSet(b *testing.B) {
	var s LineMap[struct{}]
	for i := 0; i < 32; i++ {
		s.Put(mem.Line(i * 3))
	}
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		sink := false
		for i := 0; i < b.N; i++ {
			sink = s.Has(mem.Line(1_000_000 + i))
		}
		_ = sink
	})
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		sink := false
		for i := 0; i < b.N; i++ {
			sink = s.Has(mem.Line((i % 32) * 3))
		}
		_ = sink
	})
}

// BenchmarkWriteLogStore measures the steady-state store path: repeated
// stores into an already-written working set.
func BenchmarkWriteLogStore(b *testing.B) {
	var w WriteLog
	for i := 0; i < 32; i++ {
		w.Store(mem.WordAddr(mem.Line(i), 0), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Store(mem.WordAddr(mem.Line(i%32), i%mem.WordsPerLine), uint64(i))
	}
}
