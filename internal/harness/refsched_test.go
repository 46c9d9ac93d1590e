package harness

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/exp"
	"repro/internal/sched"
)

// figureBytes renders Figure 7 and Figure 8 for a restricted workload set
// and returns the raw table bytes.
func figureBytes(t *testing.T, o Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	Figure7(&buf, o)
	Figure8(&buf, o)
	return buf.Bytes()
}

// TestFiguresByteIdenticalFastVsSlow is the report-level acceptance gate
// for every fast path that keeps a reference variant: the Figure 7 and
// Figure 8 tables on List must be byte-identical whether the cells run
// on the defaults or on one reference model. The default is rendered once
// and compared with each variant:
//
//   - sched: the reference linear-scan conductor instead of the inline
//     fast-path one (per-trace differential tests in internal/sched);
//   - cache: the verbatim memory-hierarchy model (cache.SlowHierarchy)
//     instead of the way-predicted one (random-stream tests in
//     internal/cache);
//   - sets: the engines' aset.LineMap tables in their map-backed
//     reference mode instead of open addressing with Bloom signatures
//     (property tests in internal/aset);
//   - store: the retained dense mem backing instead of the paged one
//     (property tests in internal/mem).
//
// The engine-level sweeps live in internal/tmtest; this gate proves each
// property survives engines, workloads, seed averaging and rendering.
func TestFiguresByteIdenticalFastVsSlow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five full figure sweeps")
	}
	o := Options{Seeds: []uint64{1}, Only: []string{"List"}}
	fast := figureBytes(t, o)
	for _, v := range []struct {
		name string
		set  func(*Options)
	}{
		{"sched", func(o *Options) { o.RefSched = true }},
		{"cache", func(o *Options) { o.RefCache = true }},
		{"sets", func(o *Options) { o.RefSets = true }},
		{"store", func(o *Options) { o.RefStore = true }},
	} {
		t.Run(v.name, func(t *testing.T) {
			ro := o
			v.set(&ro)
			if slow := figureBytes(t, ro); !bytes.Equal(fast, slow) {
				t.Fatalf("figure output diverges under the reference %s:\n--- fast ---\n%s\n--- reference ---\n%s", v.name, fast, slow)
			}
		})
	}
}

// TestFiguresByteIdenticalBatchedVsPerEvent is the acceptance gate for
// horizon batching at the report level: the Figure 7 and Figure 8 tables
// on List and Genome, and Figure 8 on Array, must be byte-identical
// whether the conductor runs multi-event quanta (the default) or
// schedules strictly per event (Options.PerEvent, the -per-event flag).
// It also asserts batching actually engaged — the 2PL, SONTM and SI-TM
// cells of each render must each report batched events, and each render
// strictly fewer coroutine switches than the per-event baseline — or the
// gate would pass vacuously. Genome allocates inside transactions at
// every thread count, so a transaction whose Fence does not end the
// batched quantum before txlib's bump allocator permutes node addresses
// and moves its speedups. Array's whole-array sums promise their reads
// (tm.Txn.PromiseReads) at every thread count, so a promise that
// publishes slack a scan does not honour moves its figures.
func TestFiguresByteIdenticalBatchedVsPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full figure sweeps")
	}
	collect := func(into map[string]sched.Stats) func(exp.Cell, exp.CellResult) {
		var mu sync.Mutex
		return func(c exp.Cell, res exp.CellResult) {
			mu.Lock()
			st := into[c.Engine]
			st.Add(res.Sched)
			into[c.Engine] = st
			mu.Unlock()
		}
	}
	for _, c := range []struct {
		only   []string
		render func(t *testing.T, o Options) []byte
	}{
		{[]string{"List", "Genome"}, figureBytes},
		{[]string{"Array"}, func(t *testing.T, o Options) []byte {
			var buf bytes.Buffer
			Figure8(&buf, o)
			return buf.Bytes()
		}},
	} {
		batched, perEvent := map[string]sched.Stats{}, map[string]sched.Stats{}
		o := Options{Seeds: []uint64{1}, Only: c.only, CellDone: collect(batched)}
		fast := c.render(t, o)
		o.PerEvent = true
		o.CellDone = collect(perEvent)
		ref := c.render(t, o)
		if !bytes.Equal(fast, ref) {
			t.Fatalf("%v: figure output diverges between batched and per-event conductors:\n--- batched ---\n%s\n--- per-event ---\n%s", c.only, fast, ref)
		}
		var bsw, psw uint64
		for engine, st := range batched {
			bsw += st.CoroutineSwitches
			psw += perEvent[engine].CoroutineSwitches
			if perEvent[engine].BatchedEvents != 0 {
				t.Errorf("%v: %s per-event cells batched %d events", c.only, engine, perEvent[engine].BatchedEvents)
			}
		}
		for _, engine := range []string{TwoPL, SONTM, SITM} {
			if batched[engine].BatchedEvents == 0 {
				t.Errorf("%v: %s cells ran no batched events: %+v", c.only, engine, batched[engine])
			}
		}
		if bsw >= psw {
			t.Errorf("%v: batched sweep switched %d times, per-event %d: batching should reduce switches", c.only, bsw, psw)
		}
	}
}

// TestCellDoneReportsSimulatedCycles checks the benchmark hook: every
// cell reports its makespan, the totals are deterministic, and the sum
// matches the per-result makespans the report aggregates.
func TestCellDoneReportsSimulatedCycles(t *testing.T) {
	run := func() (uint64, uint64) {
		var cells, cycles atomic.Uint64
		o := Options{Seeds: []uint64{1, 2}, CellDone: func(_ exp.Cell, res exp.CellResult) {
			cells.Add(1)
			cycles.Add(res.SimCycles)
		}}
		f, err := WorkloadByName("Array")
		if err != nil {
			t.Fatal(err)
		}
		Run(SITM, f, 4, o)
		return cells.Load(), cycles.Load()
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != 2 {
		t.Fatalf("CellDone fired %d times, want 2 (one per seed)", c1)
	}
	if s1 == 0 {
		t.Fatal("CellDone reported zero simulated cycles")
	}
	if c1 != c2 || s1 != s2 {
		t.Fatalf("CellDone totals nondeterministic: (%d,%d) vs (%d,%d)", c1, s1, c2, s2)
	}
}
