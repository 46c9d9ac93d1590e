package aset

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// holder is a stand-in transaction: the model's record of the lines it
// has added.
type holder struct {
	slot  int
	lines []mem.Line
}

// TestReadHoldsMatchesModel drives a ReadHolds with a random stream of
// begins, reads and finishes that drifts up to 150 holders live at once,
// so slots span three bitmap words, and checks it against a map model:
// Take returns the lowest free slot, Add reports first reads, and every
// line's bitmap words name exactly the live holders that read it. Both
// table backings are driven, and Audit must find nothing once every
// holder has finished.
func TestReadHoldsMatchesModel(t *testing.T) {
	for _, ref := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			r := rand.New(rand.NewSource(seed))
			var h ReadHolds[*holder]
			if ref {
				h.SetReference()
			}
			var live []*holder
			readers := map[mem.Line]map[*holder]bool{}
			finish := func(i int) {
				x := live[i]
				h.Release(x.slot, x.lines)
				for _, l := range x.lines {
					delete(readers[l], x)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			for op := 0; op < 20000; op++ {
				switch k := r.Intn(10); {
				case k <= 1 && len(live) < 150 || len(live) == 0:
					x := &holder{}
					x.slot = h.Take(x)
					used := map[int]bool{}
					for _, y := range live {
						used[y.slot] = true
					}
					want := 0
					for used[want] {
						want++
					}
					if x.slot != want {
						t.Fatalf("ref=%v seed %d op %d: Take = slot %d, want lowest free %d", ref, seed, op, x.slot, want)
					}
					live = append(live, x)
				case k == 2 || k == 3 && len(live) >= 140:
					finish(r.Intn(len(live)))
				default:
					x := live[r.Intn(len(live))]
					l := mem.Line(r.Intn(40))
					if readers[l] == nil {
						readers[l] = map[*holder]bool{}
					}
					if got, want := h.Add(x.slot, l), !readers[l][x]; got != want {
						t.Fatalf("ref=%v seed %d op %d: Add(%d, %d) = %v, want %v", ref, seed, op, x.slot, l, got, want)
					}
					if !readers[l][x] {
						readers[l][x] = true
						x.lines = append(x.lines, l)
					}
				}
				l := mem.Line(r.Intn(40))
				got := map[*holder]bool{}
				for w := 0; w < h.Words(); w++ {
					for b := h.Word(w, l); b != 0; b &= b - 1 {
						got[h.Owner(w<<6|bits.TrailingZeros64(b))] = true
					}
				}
				if len(got) != len(readers[l]) {
					t.Fatalf("ref=%v seed %d op %d: line %d has %d readers, want %d", ref, seed, op, l, len(got), len(readers[l]))
				}
				for x := range readers[l] {
					if !got[x] || !h.Has(x.slot, l) {
						t.Fatalf("ref=%v seed %d op %d: slot %d missing from line %d", ref, seed, op, x.slot, l)
					}
				}
			}
			if h.Words() < 3 {
				t.Fatalf("ref=%v seed %d: only %d bitmap words used", ref, seed, h.Words())
			}
			if err := h.Audit(); err == nil {
				t.Fatalf("ref=%v seed %d: Audit passed with %d live holders", ref, seed, len(live))
			}
			for len(live) > 0 {
				finish(0)
			}
			if err := h.Audit(); err != nil {
				t.Fatalf("ref=%v seed %d: %v", ref, seed, err)
			}
		}
	}
}
