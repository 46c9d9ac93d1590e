package sched

import (
	"fmt"
	"testing"
)

// runChooseDefault adapts RunChoose(DefaultChooser) — the reference
// conductor the differential oracles compare Run against ("slow" in their
// names) — to the func(*Sim, func(*Thread)) shape of (*Sim).Run.
func runChooseDefault(s *Sim, body func(*Thread)) {
	s.RunChoose(body, DefaultChooser{})
}

// TestChooseMatchesRunAndSlow pins the Chooser hook's default policy to
// the production conductor: RunChoose(DefaultChooser), the reference
// conductor, must reproduce Run's schedule byte-identically, across
// random tick patterns and the stall/wake workload. This is the contract that lets
// the model checker treat the decision tree it explores as the tree the
// real conductor walks one path of.
func TestChooseMatchesRunAndSlow(t *testing.T) {
	for _, threads := range []int{1, 2, 3, 4, 8, 16} {
		for seed := uint64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("ticks/t%d/s%d", threads, seed), func(t *testing.T) {
				body := func(th *Thread, step func()) {
					for i := 0; i < 200; i++ {
						step()
						th.Tick(th.Rand().Uint64() % 4)
					}
				}
				chose := runTraced(threads, seed, runChooseDefault, body)
				fast := runTraced(threads, seed, (*Sim).Run, body)
				diffTraces(t, chose, fast)
			})
		}
	}
	for _, threads := range []int{2, 4, 8} {
		for seed := uint64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("stallwake/t%d/s%d", threads, seed), func(t *testing.T) {
				mk := func() func(*Thread, func()) {
					alive, stalled := threads, 0
					return func(th *Thread, step func()) {
						for i := 0; i < 100; i++ {
							step()
							r := th.Rand().Uint64() % 16
							switch {
							case r == 0 && alive-stalled > 1:
								stalled++
								th.Stall()
								stalled--
							case r == 1:
								th.WakeAll()
								th.Tick(1)
							default:
								th.Tick(r)
							}
						}
						alive--
						th.WakeAll()
					}
				}
				chose := runTraced(threads, seed, runChooseDefault, mk())
				fast := runTraced(threads, seed, (*Sim).Run, mk())
				diffTraces(t, chose, fast)
			})
		}
	}
}

// pathChooser drives one complete schedule down a fixed decision path:
// it replays prefix, then always picks 0, recording every decision's
// fanout so a DFS can backtrack. It is the miniature, test-local twin of
// the model checker's explorer (internal/mc), kept here so the
// enumeration arithmetic below is pinned independently of that package.
type pathChooser struct {
	prefix []pathChoice
	depth  int
	path   []pathChoice
}

type pathChoice struct{ pick, fanout int }

func (c *pathChooser) Choose(runnable []*Thread) int {
	pick := 0
	if c.depth < len(c.prefix) {
		pick = c.prefix[c.depth].pick
	}
	c.depth++
	c.path = append(c.path, pathChoice{pick: pick, fanout: len(runnable)})
	return pick
}

// enumerateSchedules DFS-walks the complete decision tree of body on a
// machine with the given thread count, returning the number of leaves —
// distinct complete schedules.
func enumerateSchedules(threads int, body func(*Thread)) int {
	schedules := 0
	prefix := []pathChoice{}
	for {
		c := &pathChooser{prefix: prefix}
		s := New(threads, 1)
		s.RunChoose(body, c)
		schedules++
		// Backtrack: find the deepest decision with an unexplored
		// sibling and advance it; the tree is exhausted when none
		// remains.
		i := len(c.path) - 1
		for i >= 0 && c.path[i].pick+1 >= c.path[i].fanout {
			i--
		}
		if i < 0 {
			return schedules
		}
		prefix = append(prefix[:0], c.path[:i]...)
		prefix = append(prefix, pathChoice{pick: c.path[i].pick + 1})
	}
}

// TestEnumerationIsPermutationComplete counts the schedule space of a
// 2-thread micro-program with k ticks per thread. Each thread needs k+1
// resumes (one per tick yield plus the completing resume), so the
// distinct schedules are the interleavings of two ordered sequences of
// k+1 resumes: C(2k+2, k+1). An exact match proves the chooser hook
// exposes every interleaving exactly once — no duplicate paths, no
// unreachable ones.
func TestEnumerationIsPermutationComplete(t *testing.T) {
	binom := func(n, k int) int {
		r := 1
		for i := 1; i <= k; i++ {
			r = r * (n - k + i) / i
		}
		return r
	}
	for k := 0; k <= 5; k++ {
		body := func(th *Thread) {
			for i := 0; i < k; i++ {
				th.Tick(1)
			}
		}
		got := enumerateSchedules(2, body)
		want := binom(2*k+2, k+1)
		if got != want {
			t.Errorf("k=%d ticks: enumerated %d schedules, want C(%d,%d) = %d",
				k, got, 2*k+2, k+1, want)
		}
	}
}

// TestRunChoosePanicsOnBadPick pins the chooser-contract guard.
func TestRunChoosePanicsOnBadPick(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range pick did not panic")
		}
	}()
	s := New(2, 1)
	s.RunChoose(func(th *Thread) { th.Tick(1) }, badChooser{})
}

type badChooser struct{}

func (badChooser) Choose(runnable []*Thread) int { return len(runnable) }
