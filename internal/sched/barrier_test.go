package sched

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

func TestBarrierSynchronises(t *testing.T) {
	s := New(4, 1)
	b := NewBarrier(4)
	phase := make([]int, 4)
	var order []int
	s.Run(func(th *Thread) {
		// Unequal pre-barrier work: thread i ticks i*100 cycles.
		th.Tick(uint64(th.ID()) * 100)
		phase[th.ID()] = 1
		b.Wait(th)
		// After the barrier every thread must observe all phases = 1.
		for i, p := range phase {
			if p != 1 {
				t.Errorf("thread %d passed barrier before thread %d arrived", th.ID(), i)
			}
		}
		order = append(order, th.ID())
	})
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
}

func TestBarrierReusable(t *testing.T) {
	s := New(3, 2)
	b := NewBarrier(3)
	counts := make([]int, 3)
	s.Run(func(th *Thread) {
		for phase := 0; phase < 5; phase++ {
			counts[th.ID()]++
			b.Wait(th)
			// After my wait returns, every thread has arrived at my
			// phase; a fast thread may already be one phase ahead,
			// but never behind and never two ahead.
			mine := counts[th.ID()]
			for i := range counts {
				if counts[i] < mine || counts[i] > mine+1 {
					t.Errorf("phase skew beyond one: %v", counts)
				}
			}
		}
	})
}

func TestBarrierChargesSpinCycles(t *testing.T) {
	s := New(2, 3)
	b := NewBarrier(2)
	s.Run(func(th *Thread) {
		if th.ID() == 0 {
			th.Tick(1000) // arrive late
		}
		b.Wait(th)
	})
	// The early thread spins from cycle 0 in polls of 5 cycles; thread
	// 0 releases at cycle 1000, and thread 1's poll at 1000 comes after
	// it (higher ID), so thread 1 leaves there.
	if c := s.Thread(1).Cycles(); c != 1000 {
		t.Fatalf("early thread cycles = %d, want 1000 (spun at barrier)", c)
	}
}

// spinBarrier is the spin loop Barrier's closed form stands for: a
// waiter ticks SpinCycles per poll until the releaser bumps the
// generation.
type spinBarrier struct {
	n, arrived int
	gen, spin  uint64
}

func (b *spinBarrier) wait(t *Thread) {
	t.Fence()
	gen := b.gen
	if b.arrived++; b.arrived == b.n {
		b.arrived = 0
		b.gen++
		t.Tick(b.spin)
		return
	}
	for b.gen == gen {
		t.Tick(b.spin)
	}
}

// TestBarrierExitIsFirstPollAfterRelease pins the held barrier to the
// spin loop it replaces, over random arrival charges, SpinCycles and
// thread counts, under Run, per-event Run and RunChoose with the
// default chooser. The last arrival in (cycles, ID) order releases
// the barrier at its arrival r and leaves at r + SpinCycles; every
// other thread leaves at its first poll, arrival + m × SpinCycles with
// m >= 1, ordered after (r, releaser ID). Each phase's exits must equal
// that closed form and the spin loop's. One more thread, outside the
// barrier, calls WakeAll throughout, as a committing peer does: it must
// not release a held waiter.
func TestBarrierExitIsFirstPollAfterRelease(t *testing.T) {
	const phases = 4
	conductors := []struct {
		name string
		run  func(*Sim, func(*Thread))
	}{
		{"Run", func(s *Sim, body func(*Thread)) { s.Run(body) }},
		{"per-event", func(s *Sim, body func(*Thread)) { s.SetPerEvent(true); s.Run(body) }},
		{"RunChoose", runChooseDefault},
	}
	r := NewRand(27)
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(7)
		spin := uint64(1 + r.Intn(9))
		seed := r.Uint64()
		// run returns each barrier thread's arrival and exit cycles per
		// phase, thread-major.
		run := func(conduct func(*Sim, func(*Thread)), held bool) (arrive, exit [][]uint64) {
			s := New(n+1, seed)
			hb := NewBarrier(n)
			hb.SpinCycles = spin
			sb := &spinBarrier{n: n, spin: spin}
			arrive, exit = make([][]uint64, n), make([][]uint64, n)
			conduct(s, func(th *Thread) {
				rng := th.Rand()
				if th.ID() == n {
					for i := 0; i < 200; i++ {
						th.Tick(uint64(1 + rng.Intn(30)))
						th.WakeAll()
					}
					return
				}
				th.SetSlack(uint64(rng.Intn(20)))
				for p := 0; p < phases; p++ {
					// Charges of a few spin intervals plus a small
					// remainder put arrivals on and between polls.
					for k := rng.Intn(4); k >= 0; k-- {
						c := uint64(rng.Intn(6))*spin + uint64(rng.Intn(3))
						if rng.Intn(2) == 0 {
							th.TickHinted(c)
						} else {
							th.LocalTick(c)
						}
					}
					arrive[th.ID()] = append(arrive[th.ID()], th.Cycles())
					if held {
						hb.Wait(th)
					} else {
						sb.wait(th)
					}
					exit[th.ID()] = append(exit[th.ID()], th.Cycles())
				}
			})
			return arrive, exit
		}
		for _, c := range conductors {
			name := fmt.Sprintf("%s/trial%d/n%d/spin%d", c.name, trial, n, spin)
			arrive, got := run(c.run, true)
			_, spun := run(c.run, false)
			if !slices.EqualFunc(got, spun, slices.Equal) {
				t.Errorf("%s: exits %v, the spin loop's %v", name, got, spun)
				continue
			}
			for p := 0; p < phases; p++ {
				rel := 0
				for i := 1; i < n; i++ {
					if arrive[i][p] >= arrive[rel][p] {
						rel = i
					}
				}
				rc := arrive[rel][p]
				for i := 0; i < n; i++ {
					want := rc + spin
					if i != rel {
						want = arrive[i][p] + spin
						for want < rc || want == rc && i < rel {
							want += spin
						}
					}
					if got[i][p] != want {
						t.Errorf("%s: phase %d: thread %d arrived at %d, released by thread %d at %d: left at %d, want %d",
							name, p, i, arrive[i][p], rel, rc, got[i][p], want)
					}
				}
			}
		}
	}
}

// TestBarrierZeroSpinCyclesPanics pins the up-front rejection of a zero
// poll interval, whose spin loop would never advance the clock.
func TestBarrierZeroSpinCyclesPanics(t *testing.T) {
	b := NewBarrier(2)
	b.SpinCycles = 0
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "SpinCycles 0") {
			t.Fatalf("recovered %q, want a SpinCycles 0 panic", msg)
		}
	}()
	New(2, 1).Run(func(th *Thread) { b.Wait(th) })
}

func TestBarrierBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBarrier(0)
}
