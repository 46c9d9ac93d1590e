package tmtest_test

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/tm"
)

// schedResult is everything the evaluation reports about one simulation:
// the full engine statistics (commits, read-only commits, aborts by kind,
// stalls, backoff cycles) plus the simulated makespan. Stats holds only
// fixed-size fields, so results compare with ==.
type schedResult struct {
	stats    tm.Stats
	makespan uint64
	state    uint64      // xor over final memory words, pins the data too
	cache    cache.Stats // aggregate simulated-cache stats, when the engine reports them
}

// cacheStatser is implemented by every engine that simulates the memory
// hierarchy; the sweeps use it to compare and audit cache statistics
// without per-engine knowledge.
type cacheStatser interface {
	CacheStats() cache.Stats
}

// refSched runs body under the reference conductor: RunChoose with the
// production scheduling policy, a coroutine handoff on every charge.
func refSched(s *sched.Sim, body func(*sched.Thread)) {
	s.RunChoose(body, sched.DefaultChooser{})
}

// runEngineWorkload drives a mixed workload (contended counters plus bank
// transfers) on a fresh engine under the given conductor — the inline
// fast-path scheduler (*Sim).Run or the reference conductor, refSched.
func runEngineWorkload(t *testing.T, name string, opts tm.EngineOptions, threads int, seed uint64, run func(*sched.Sim, func(*sched.Thread))) schedResult {
	t.Helper()
	e, err := tm.NewEngine(name, opts)
	if err != nil {
		t.Fatalf("constructing %s: %v", name, err)
	}
	const accounts = 6
	addr := func(i int) mem.Addr { return mem.Addr((i + 1) * mem.LineBytes) }
	for i := 0; i < accounts; i++ {
		e.NonTxWrite(addr(i), 100)
	}
	s := sched.New(threads, seed)
	run(s, func(th *sched.Thread) {
		r := th.Rand()
		for i := 0; i < 30; i++ {
			if r.Uint64()%2 == 0 {
				_ = tm.Atomic(e, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
					a := addr(r.Intn(accounts))
					tx.Write(a, tx.Read(a)+1)
					return nil
				})
			} else {
				from, to := addr(r.Intn(accounts)), addr(r.Intn(accounts))
				_ = tm.Atomic(e, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
					balance := tx.Read(from)
					if from == to || balance < 3 {
						return nil
					}
					tx.Write(from, balance-3)
					tx.Write(to, tx.Read(to)+3)
					return nil
				})
			}
		}
	})
	res := schedResult{stats: *e.Stats(), makespan: s.Makespan()}
	if cs, ok := e.(cacheStatser); ok {
		res.cache = cs.CacheStats()
	}
	for i := 0; i < accounts; i++ {
		res.state ^= e.NonTxRead(addr(i)) * uint64(i+1)
	}
	return res
}

// TestSchedulerDifferential pins the PR's core invariant end to end: for
// every registered engine, across thread counts and seeds, the inline
// fast-path conductor and the reference conductor (refSched) produce
// bit-identical engine statistics, makespans and final memory state. Any
// divergence here means the Tick fast path changed the schedule, which
// would silently shift every figure in the evaluation.
func TestSchedulerDifferential(t *testing.T) {
	for _, name := range tm.Engines() {
		for _, threads := range []int{1, 2, 4, 8} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/t%d/s%d", name, threads, seed), func(t *testing.T) {
					fast := runEngineWorkload(t, name, tm.EngineOptions{}, threads, seed, (*sched.Sim).Run)
					slow := runEngineWorkload(t, name, tm.EngineOptions{}, threads, seed, refSched)
					if fast != slow {
						t.Errorf("fast conductor %+v\nslow conductor %+v", fast, slow)
					}
				})
			}
		}
	}
}

// TestBatchedSchedulerDifferential is the same registry-wide pin for
// horizon batching: for every engine the batched conductor and the same
// conductor with batching disabled (SetPerEvent) must agree on engine
// statistics, makespan, final memory and cache statistics. It also guards
// that batching is actually engaged where it is supposed to be — for the
// plain SI-TM engine with fast sets and the fast cache model — by
// asserting the coroutine-switch count drops against the per-event run.
func TestBatchedSchedulerDifferential(t *testing.T) {
	type run struct {
		res   schedResult
		stats sched.Stats
	}
	drive := func(t *testing.T, name string, threads int, seed uint64, perEvent bool) run {
		var st sched.Stats
		res := runEngineWorkload(t, name, tm.EngineOptions{}, threads, seed,
			func(s *sched.Sim, body func(*sched.Thread)) {
				s.SetPerEvent(perEvent)
				s.Run(body)
				st = s.Stats()
			})
		return run{res: res, stats: st}
	}
	for _, name := range tm.Engines() {
		for _, threads := range []int{1, 2, 4, 8} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/t%d/s%d", name, threads, seed), func(t *testing.T) {
					batched := drive(t, name, threads, seed, false)
					perEvent := drive(t, name, threads, seed, true)
					if batched.res != perEvent.res {
						t.Errorf("batched conductor %+v\nper-event conductor %+v", batched.res, perEvent.res)
					}
					if perEvent.stats.BatchedEvents != 0 {
						t.Errorf("per-event conductor batched %d events", perEvent.stats.BatchedEvents)
					}
					// A single thread always leads: its charges
					// stay on the inline-tick path and no quantum ever needs
					// batching, so the engagement assertions start at 2.
					if name == "SI-TM" && threads > 1 && batched.stats.BatchedEvents == 0 {
						t.Errorf("SI-TM ran no batched events: %+v", batched.stats)
					}
					if name == "SI-TM" && threads > 1 && batched.stats.CoroutineSwitches >= perEvent.stats.CoroutineSwitches {
						t.Errorf("batched conductor switched %d times, per-event %d: batching should reduce switches",
							batched.stats.CoroutineSwitches, perEvent.stats.CoroutineSwitches)
					}
				})
			}
		}
	}
}
