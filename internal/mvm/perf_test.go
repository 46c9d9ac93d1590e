package mvm

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/clock"
	"repro/internal/mem"
)

// referenceGC is the original mark-buffer implementation of gc, retained
// verbatim as the differential oracle for the allocation-free merge walk.
func referenceGC(m *Memory, vl *versionList, installTS clock.Timestamp) (reclaimed int) {
	if len(vl.v) < 2 {
		return 0
	}
	horizon := m.safeHorizon()
	keep := make([]bool, len(vl.v))
	keep[len(vl.v)-1] = true
	mark := func(s clock.Timestamp) {
		for i := len(vl.v) - 1; i >= 0; i-- {
			if vl.v[i].ts <= s {
				keep[i] = true
				return
			}
		}
	}
	mark(horizon)
	for _, s := range m.active.Starts() {
		mark(s)
	}
	for i, v := range vl.v {
		if v.ts >= installTS {
			keep[i] = true
		}
	}
	out := vl.v[:0]
	for i, v := range vl.v {
		if keep[i] {
			out = append(out, v)
		} else {
			reclaimed++
		}
	}
	vl.v = out
	return reclaimed
}

// listWith builds a version list with the given ascending timestamps.
func listWith(ts []clock.Timestamp) *versionList {
	vl := newVersionList()
	for _, t := range ts {
		vl.v = append(vl.v, version{ts: t})
	}
	return vl
}

// TestGCMatchesReference property-tests the merge-walk gc against the
// original mark-buffer implementation across random version lists, active
// tables and install points.
func TestGCMatchesReference(t *testing.T) {
	f := func(gaps []uint8, starts []uint8, installGap uint8) bool {
		if len(gaps) > 12 {
			gaps = gaps[:12]
		}
		// Strictly ascending version timestamps from random gaps.
		var ts []clock.Timestamp
		cur := clock.Timestamp(0)
		for _, g := range gaps {
			cur += clock.Timestamp(g%7) + 1
			ts = append(ts, cur)
		}
		installTS := cur + clock.Timestamp(installGap%5)

		build := func() (*Memory, *versionList) {
			clk := clock.New()
			active := clock.NewActiveTable()
			for _, s := range starts {
				active.Register(clock.Timestamp(s % 40))
			}
			m := New(Config{Policy: Unbounded, Coalesce: true}, clk, active)
			return m, listWith(ts)
		}

		mNew, vlNew := build()
		mNew.gc(vlNew, installTS)

		mRef, vlRef := build()
		wantReclaimed := referenceGC(mRef, vlRef, installTS)

		if int(mNew.stats.GCReclaimed) != wantReclaimed {
			return false
		}
		return reflect.DeepEqual(tsOf(vlNew), tsOf(vlRef))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func tsOf(vl *versionList) []clock.Timestamp {
	out := []clock.Timestamp{}
	for _, v := range vl.v {
		out = append(out, v.ts)
	}
	return out
}

// TestDropOldestRevertStaleAccounting pins the satellite contract: the
// DropOldest policy, the in-place gc and Revert must leave stale-read
// accounting exactly as before. A truncated line aborts readers below the
// oldest retained version and counts them in StaleReads; reverting a
// later install must not resurrect or further truncate history.
func TestDropOldestRevertStaleAccounting(t *testing.T) {
	clk := clock.New()
	active := clock.NewActiveTable()
	m := New(Config{MaxVersions: 2, Policy: DropOldest, Coalesce: false}, clk, active)
	line := mem.Line(1)
	var words [mem.WordsPerLine]uint64

	install := func(pin bool) (clock.Timestamp, Undo) {
		if pin {
			active.Register(clk.Begin())
		}
		e := clk.ReserveEnd()
		words[0] = uint64(e)
		u, err := m.Install(line, e, m.NewestLine(line), 1, &words)
		if err != nil {
			t.Fatalf("install at %d: %v", e, err)
		}
		clk.CompleteEnd(e)
		return e, u
	}

	// Three pinned installs: the third forces DropOldest to discard the
	// first version and mark the line truncated.
	t1, _ := install(true)
	t2, _ := install(true)
	t3, _ := install(true)
	if got := m.VersionTimestamps(line); !reflect.DeepEqual(got, []clock.Timestamp{t2, t3}) {
		t.Fatalf("versions after drop = %v, want [%d %d]", got, t2, t3)
	}
	if m.Stats().DroppedOld != 1 {
		t.Fatalf("DroppedOld = %d, want 1", m.Stats().DroppedOld)
	}

	// A snapshot below the dropped version is a stale read, not a zero
	// read.
	if _, ok := m.ReadWord(mem.Addr(line)*mem.LineBytes, t1-1); ok {
		t.Fatal("read below truncated history must fail")
	}
	if m.Stats().StaleReads != 1 {
		t.Fatalf("StaleReads = %d, want 1", m.Stats().StaleReads)
	}

	// A fourth install drops t2 the same way, then a revert of it removes
	// exactly the new version: the exact install vanishes, truncation and
	// stale accounting stay.
	t4, u4 := install(true)
	if m.Stats().DroppedOld != 2 {
		t.Fatalf("DroppedOld = %d, want 2", m.Stats().DroppedOld)
	}
	m.Revert(line, t4, u4)
	if got := m.VersionTimestamps(line); !reflect.DeepEqual(got, []clock.Timestamp{t3}) {
		t.Fatalf("versions after revert = %v, want [%d]", got, t3)
	}
	if _, ok := m.ReadWord(mem.Addr(line)*mem.LineBytes, t1-1); ok {
		t.Fatal("revert must not resurrect dropped history")
	}
	if m.Stats().StaleReads != 2 {
		t.Fatalf("StaleReads = %d, want 2", m.Stats().StaleReads)
	}

	// Reads at or above the oldest retained version still succeed.
	if v, ok := m.ReadWord(mem.Addr(line)*mem.LineBytes, t3); !ok || v != uint64(t3) {
		t.Fatalf("read newest = %d,%v want %d,true", v, ok, t3)
	}
}

// TestRevertCoalescedRestoresPrev checks the coalesced-undo path against
// the inline-array list: the overwritten version comes back bit-exact.
func TestRevertCoalescedRestoresPrev(t *testing.T) {
	clk := clock.New()
	active := clock.NewActiveTable()
	m := New(DefaultConfig(), clk, active)
	line := mem.Line(2)
	var words [mem.WordsPerLine]uint64

	e1 := clk.ReserveEnd()
	words[0] = 11
	if _, err := m.Install(line, e1, m.NewestLine(line), 1, &words); err != nil {
		t.Fatal(err)
	}
	clk.CompleteEnd(e1)

	// No active snapshot separates e1 from e2: the install coalesces.
	e2 := clk.ReserveEnd()
	words[0] = 22
	u, err := m.Install(line, e2, m.NewestLine(line), 1, &words)
	if err != nil {
		t.Fatal(err)
	}
	if !u.Coalesced || u.PrevTS != e1 {
		t.Fatalf("undo = %+v, want coalesced over ts %d", u, e1)
	}
	m.Revert(line, e2, u)
	clk.CompleteEnd(e2)

	if got := m.VersionTimestamps(line); !reflect.DeepEqual(got, []clock.Timestamp{e1}) {
		t.Fatalf("versions after revert = %v, want [%d]", got, e1)
	}
	if v := m.NonTxReadWord(mem.Addr(line) * mem.LineBytes); v != 11 {
		t.Fatalf("restored word = %d, want 11", v)
	}
}

// steadyInstall returns the steady-state Install hot path, one install
// per call, after 16 installs that reach steady state. With turnover, a
// sliding window of active snapshots pins recent versions so every
// install walks gc, fails coalescing and exercises the DropOldest shift;
// without it, every install coalesces in place.
func steadyInstall(tb testing.TB, cfg Config, turnover bool) func() {
	clk := clock.New()
	active := clock.NewActiveTable()
	m := New(cfg, clk, active)
	const line = mem.Line(1)
	var words [mem.WordsPerLine]uint64
	i := 0
	install := func() {
		if turnover {
			active.Register(clk.Begin())
		}
		ts := clk.ReserveEnd()
		words[0] = uint64(i)
		i++
		if _, err := m.Install(line, ts, m.NewestLine(line), 1, &words); err != nil {
			tb.Fatal(err)
		}
		clk.CompleteEnd(ts)
		if turnover && active.Len() > 4 {
			s, _ := active.OldestActive()
			active.Deregister(s)
		}
	}
	for j := 0; j < 16; j++ {
		install()
	}
	return install
}

var installPaths = []struct {
	name     string
	cfg      Config
	turnover bool
}{
	{"coalesce", DefaultConfig(), false},
	{"dropoldest", Config{MaxVersions: 4, Policy: DropOldest, Coalesce: true}, true},
}

// BenchmarkInstall times both steady-state paths.
func BenchmarkInstall(b *testing.B) {
	for _, p := range installPaths {
		b.Run(p.name, func(b *testing.B) {
			install := steadyInstall(b, p.cfg, p.turnover)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				install()
			}
		})
	}
}

// TestInstallZeroAllocs asserts that neither steady-state path allocates:
// the version list lives in its inline array and gc walks without a mark
// buffer.
func TestInstallZeroAllocs(t *testing.T) {
	for _, p := range installPaths {
		if a := testing.AllocsPerRun(1000, steadyInstall(t, p.cfg, p.turnover)); a != 0 {
			t.Errorf("%s: Install allocates %v times per call, want 0", p.name, a)
		}
	}
}
