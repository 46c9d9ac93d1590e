package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/mvm"
	"repro/internal/sched"
	"repro/internal/tm"
)

// eventCosts are per-event host costs of the layers' public calls, each
// timed in isolation. Multiplied by the traced run's event counts they
// model where sched.run_s goes; what they miss is the residual.
type eventCosts struct {
	SwitchNs, TickNs, L1HitNs, MemMissNs, InstallNs, ReadNs float64
	CommitNs                                                map[string]float64 // per engine layer
}

// costReps is how often each cost is timed; the median is kept.
const costReps = 5

// nsPerEvent times op costReps times and returns the median of
// elapsed/events, where op returns the number of events it performed.
func nsPerEvent(op func() (events uint64, elapsed time.Duration)) float64 {
	v := make([]float64, costReps)
	for i := range v {
		n, d := op()
		v[i] = float64(d.Nanoseconds()) / float64(n)
	}
	sort.Float64s(v)
	return v[costReps/2]
}

func measureCosts() (eventCosts, error) {
	c := eventCosts{CommitNs: map[string]float64{}}
	// A coroutine switch: two threads charging in lock step hand the
	// conductor to each other on every charge.
	c.SwitchNs = nsPerEvent(func() (uint64, time.Duration) {
		s := sched.New(2, 1)
		start := time.Now()
		s.Run(func(th *sched.Thread) {
			for i := 0; i < 100_000; i++ {
				th.Tick(2)
			}
		})
		return s.Stats().CoroutineSwitches, time.Since(start)
	})
	// An inline charge: the other thread is parked far ahead.
	c.TickNs = nsPerEvent(func() (uint64, time.Duration) {
		const n = 2_000_000
		s := sched.New(2, 1)
		start := time.Now()
		s.Run(func(th *sched.Thread) {
			if th.ID() == 0 {
				for i := 0; i < n; i++ {
					th.Tick(1)
				}
			} else {
				th.Tick(n + 2)
			}
		})
		return n, time.Since(start)
	})
	cfg := cache.DefaultConfig()
	c.L1HitNs = nsPerEvent(func() (uint64, time.Duration) {
		const n = 2_000_000
		h := cache.NewHierarchy(cfg, cache.NewShared(cfg))
		h.Access(1)
		start := time.Now()
		for i := 0; i < n; i++ {
			h.Access(1)
		}
		return n, time.Since(start)
	})
	// A miss in every level: each access touches a line never seen.
	c.MemMissNs = nsPerEvent(func() (uint64, time.Duration) {
		const n = 200_000
		h := cache.NewHierarchy(cfg, cache.NewShared(cfg))
		start := time.Now()
		for i := 0; i < n; i++ {
			h.Access(mem.Line(i + 1))
		}
		return n, time.Since(start)
	})
	c.InstallNs, c.ReadNs = mvmCosts()
	for name, layer := range engineLayers {
		ns, err := commitCost(name)
		if err != nil {
			return c, err
		}
		c.CommitNs[layer] = ns
	}
	return c, nil
}

// mvmCosts times a steady-state version install on one line and a
// snapshot read of the newest version.
func mvmCosts() (installNs, readNs float64) {
	const n = 200_000
	setup := func() (*mvm.Memory, *clock.Clock, func(i int)) {
		clk := clock.New()
		m := mvm.New(mvm.DefaultConfig(), clk, clock.NewActiveTable())
		var words [mem.WordsPerLine]uint64
		install := func(i int) {
			ts := clk.ReserveEnd()
			words[0] = uint64(i)
			if _, err := m.Install(1, ts, m.NewestLine(1), 1, &words); err != nil {
				panic(fmt.Sprintf("mvm install: %v", err)) // cannot happen: gc keeps one version
			}
			clk.CompleteEnd(ts)
		}
		for i := 0; i < 16; i++ {
			install(i)
		}
		return m, clk, install
	}
	installNs = nsPerEvent(func() (uint64, time.Duration) {
		_, _, install := setup()
		start := time.Now()
		for i := 0; i < n; i++ {
			install(i)
		}
		return n, time.Since(start)
	})
	readNs = nsPerEvent(func() (uint64, time.Duration) {
		m, clk, _ := setup()
		at := clk.Now()
		start := time.Now()
		for i := 0; i < n; i++ {
			m.ReadWord(mem.LineBytes, at)
		}
		return n, time.Since(start)
	})
	return installNs, readNs
}

// commitCost times one whole writer transaction (begin, four first
// writes, commit) on a single-threaded simulation of the named engine,
// after a warm-up transaction.
func commitCost(engine string) (float64, error) {
	var err error
	ns := nsPerEvent(func() (uint64, time.Duration) {
		const n = 20_000
		var e tm.Engine
		if e, err = tm.NewEngine(engine, tm.EngineOptions{}); err != nil {
			return 1, 0
		}
		var elapsed time.Duration
		sched.New(1, 1).Run(func(th *sched.Thread) {
			commit := func(i int) {
				tx := e.Begin(th)
				for l := 0; l < 4; l++ {
					tx.Write(mem.Addr((1+l)*mem.LineBytes), uint64(i))
				}
				if cerr := tx.Commit(); cerr != nil && err == nil {
					err = fmt.Errorf("%s commit: %w", engine, cerr)
				}
			}
			commit(0)
			start := time.Now()
			for i := 0; i < n; i++ {
				commit(i)
			}
			elapsed = time.Since(start)
		})
		return n, elapsed
	})
	return ns, err
}
