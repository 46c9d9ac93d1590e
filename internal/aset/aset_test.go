package aset

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// TestLineSetMatchesMap drives a line set (a LineMap[struct{}], as SI-TM
// keeps its promoted and read lines) and a reference Go map with the same
// random stream — adds, membership probes and periodic resets over a
// skewed key range — and requires identical answers at every step plus
// identical first-insertion order. This is the property the engines'
// byte-identical figures rest on: the open-addressing table must be
// observably a map with deterministic iteration order.
func TestLineSetMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		var s LineMap[struct{}]
		ref := map[mem.Line]bool{}
		var refOrder []mem.Line
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
				ref = map[mem.Line]bool{}
				refOrder = refOrder[:0]
			case 1, 2: // membership probe
				if got, want := s.Has(l), ref[l]; got != want {
					t.Fatalf("seed %d op %d: Has(%d) = %v, want %v", seed, op, l, got, want)
				}
			default: // add
				_, got := s.Put(l)
				want := !ref[l]
				if got != want {
					t.Fatalf("seed %d op %d: Put(%d) inserted = %v, want %v", seed, op, l, got, want)
				}
				if want {
					ref[l] = true
					refOrder = append(refOrder, l)
				}
			}
			if s.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len = %d, want %d", seed, op, s.Len(), len(ref))
			}
		}
		lines := s.Lines()
		if len(lines) != len(refOrder) {
			t.Fatalf("seed %d: order length %d, want %d", seed, len(lines), len(refOrder))
		}
		for i := range lines {
			if lines[i] != refOrder[i] {
				t.Fatalf("seed %d: Lines()[%d] = %d, want %d (insertion order broken)", seed, i, lines[i], refOrder[i])
			}
		}
	}
}

// TestWriteLogMatchesMap drives a WriteLog and a reference
// map[mem.Addr]uint64 with the same random stream of stores, loads and
// resets, checking word-exact load answers, line membership, and
// first-write line order.
func TestWriteLogMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		var w WriteLog
		ref := map[mem.Addr]uint64{}
		var refOrder []mem.Line
		refLines := map[mem.Line]bool{}
		for op := 0; op < 20000; op++ {
			a := mem.Addr(r.Intn(512) * mem.WordBytes)
			switch r.Intn(8) {
			case 0: // reset
				w.Reset()
				ref = map[mem.Addr]uint64{}
				refOrder = refOrder[:0]
				refLines = map[mem.Line]bool{}
			case 1, 2, 3: // load
				got, ok := w.Load(a)
				want, wok := ref[a]
				if ok != wok || got != want {
					t.Fatalf("seed %d op %d: Load(%d) = %d,%v want %d,%v", seed, op, a, got, ok, want, wok)
				}
				line := mem.LineOf(a)
				if w.Has(line) != refLines[line] {
					t.Fatalf("seed %d op %d: Has(%d) = %v, want %v", seed, op, line, w.Has(line), refLines[line])
				}
			default: // store
				v := r.Uint64()
				first := w.Store(a, v)
				line := mem.LineOf(a)
				if first != !refLines[line] {
					t.Fatalf("seed %d op %d: Store(%d) first = %v, want %v", seed, op, a, first, !refLines[line])
				}
				if first {
					refLines[line] = true
					refOrder = append(refOrder, line)
				}
				ref[a] = v
			}
		}
		lines := w.Lines()
		if len(lines) != len(refOrder) {
			t.Fatalf("seed %d: %d lines, want %d", seed, len(lines), len(refOrder))
		}
		for i, l := range lines {
			if l != refOrder[i] {
				t.Fatalf("seed %d: Lines()[%d] = %d, want %d", seed, i, l, refOrder[i])
			}
			gl, ok := w.Line(l)
			if !ok {
				t.Fatalf("seed %d: Line(%d) missing", seed, l)
			}
			al, ap := w.At(i)
			if al != l || ap != gl {
				t.Fatalf("seed %d: At(%d) = (%d,%p), want (%d,%p)", seed, i, al, ap, l, gl)
			}
			for word := 0; word < mem.WordsPerLine; word++ {
				a := mem.WordAddr(l, word)
				if v, wok := ref[a]; wok {
					if gl.Mask&(1<<word) == 0 || gl.Words[word] != v {
						t.Fatalf("seed %d: line %d word %d = %d mask %v, want %d", seed, l, word, gl.Words[word], gl.Mask&(1<<word) != 0, v)
					}
				} else if gl.Mask&(1<<word) != 0 {
					t.Fatalf("seed %d: line %d word %d spuriously masked", seed, l, word)
				}
			}
		}
	}
}

// TestLineMapValuesSurviveGrowth pins the value lane across rehashes:
// entries inserted before several growth rounds keep their values.
func TestLineMapValuesSurviveGrowth(t *testing.T) {
	var m LineMap[uint64]
	const n = 1000
	for i := 0; i < n; i++ {
		v, first := m.Put(mem.Line(i * 7))
		if !first {
			t.Fatalf("line %d: duplicate insert", i*7)
		}
		*v = uint64(i) + 1
	}
	for i := 0; i < n; i++ {
		v, ok := m.Get(mem.Line(i * 7))
		if !ok || *v != uint64(i)+1 {
			t.Fatalf("line %d: value lost across growth (got %v, ok %v)", i*7, v, ok)
		}
	}
}

// TestResetKeepsCapacity proves the recycling contract: after a Reset, a
// transaction-sized reuse of the set allocates nothing and observes a
// pristine value lane.
func TestResetKeepsCapacity(t *testing.T) {
	var s LineMap[struct{}]
	var w WriteLog
	for i := 0; i < 128; i++ {
		s.Put(mem.Line(i))
		w.Store(mem.WordAddr(mem.Line(i), i%mem.WordsPerLine), uint64(i))
	}
	s.Reset()
	w.Reset()
	if s.Len() != 0 || w.Len() != 0 {
		t.Fatalf("Reset left %d/%d entries", s.Len(), w.Len())
	}
	if got, ok := w.Load(mem.WordAddr(3, 3)); ok {
		t.Fatalf("Reset left a loadable word: %d", got)
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
		t.Errorf("reused set allocates %v allocs/op, want 0", allocs)
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
