// Package mvm implements the multiversioned memory architecture of §3 of
// the SI-TM paper: an indirection layer that maps (cache line address,
// timestamp) to immutable data versions, with copy-on-write installs,
// version coalescing (§3.1, Figure 4), write-driven garbage collection, and
// the bounded-version policies the paper evaluates (abort on a fifth
// version, or drop the oldest and abort stale readers).
//
// Data is modelled at the paper's granularity: 64-byte lines of eight
// 64-bit words. A line that has never been written reads as zero at every
// timestamp — physical lines are "allocated on the first write" (§3).
package mvm

import (
	"fmt"
	"math"

	"repro/internal/clock"
	"repro/internal/mem"
)

// Policy selects what happens when a line would exceed the version bound.
type Policy int

const (
	// AbortFifth aborts the transaction that tries to create a version
	// beyond the bound — the paper's default (§3.1).
	AbortFifth Policy = iota
	// DropOldest discards the oldest version instead; transactions
	// abort later on reads that cannot find a version old enough —
	// the paper's alternative, "within 1%" of AbortFifth.
	DropOldest
	// Unbounded keeps every version (subject to GC); used for the
	// Appendix A / Table 2 measurement.
	Unbounded
)

func (p Policy) String() string {
	switch p {
	case AbortFifth:
		return "abort-fifth"
	case DropOldest:
		return "drop-oldest"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Config controls the version-management policies of §3.1.
type Config struct {
	// MaxVersions bounds the versions retained per line (the paper
	// uses 4). Ignored when Policy is Unbounded.
	MaxVersions int
	// Policy selects the overflow behaviour.
	Policy Policy
	// Coalesce enables version coalescing (§3.1, Figure 4): a new
	// version replaces the previous one unless an active transaction's
	// start timestamp separates them.
	Coalesce bool
	// ReferenceStore backs the per-line version table with the retained
	// dense mem store instead of the paged one, the differential oracle
	// for the paged backing. Results are bit-identical to the default;
	// only memory footprint changes.
	ReferenceStore bool
}

// DefaultConfig returns the paper's configuration: 4 versions,
// abort-on-fifth, coalescing enabled.
func DefaultConfig() Config {
	return Config{MaxVersions: 4, Policy: AbortFifth, Coalesce: true}
}

// ErrCapacity is reported by Install when the version bound would be
// exceeded under the AbortFifth policy.
var ErrCapacity = fmt.Errorf("mvm: version capacity exceeded")

// version is one immutable snapshot of a line, tagged with the end
// timestamp of the transaction that committed it.
type version struct {
	ts   clock.Timestamp
	data [mem.WordsPerLine]uint64
}

// inlineVersions sizes a versionList's inline storage: the paper's
// 4-version bound (§3.1) fits without a separate slice allocation, so on
// the bounded policies a line's whole version history lives in one
// allocation and the hot path (Install/gc/Revert) never reallocates.
const inlineVersions = 4

// versionList holds a line's versions in ascending timestamp order
// (newest last). Every line implicitly begins as an all-zero version at
// timestamp 0 ("physical memory is allocated on the first write", §3);
// truncated records that DropOldest discarded history, after which
// snapshots older than the oldest retained version must abort instead of
// seeing the implicit zero.
//
// v always starts out aliasing arr; every mutation (gc compaction,
// DropOldest, Revert) compacts in place so the base pointer is preserved
// and append only allocates when the Unbounded policy grows a line past
// the inline capacity.
type versionList struct {
	v         []version
	truncated bool
	arr       [inlineVersions]version
}

// newVersionList allocates a line's version list with its inline storage
// ready for appends.
func newVersionList() *versionList {
	vl := &versionList{}
	vl.v = vl.arr[:0]
	return vl
}

// Stats aggregates the measurements of §3.2 and Appendix A.
type Stats struct {
	// AccessDepth[d] counts transactional reads served by the d-th most
	// recent version (d=1 is the newest); AccessTail counts reads
	// served by versions older than the 5th — Table 2's rows.
	AccessDepth [5]uint64
	AccessTail  uint64

	Installs     uint64 // versions created by commits
	Coalesced    uint64 // installs that overwrote the previous version
	GCReclaimed  uint64 // versions dropped because no snapshot needs them
	DroppedOld   uint64 // versions discarded by the DropOldest policy
	StaleReads   uint64 // reads that found no version old enough
	PeakVersions int    // maximum versions observed on any line
}

// Memory is the multiversioned main memory shared by all cores.
type Memory struct {
	cfg    Config
	clk    *clock.Clock
	active *clock.ActiveTable
	// lines is a paged table keyed by line number — the simulated
	// address space is dense (bump allocated), and ReadWord sits on the
	// per-access hot path where a map hash dominated. The paged backing
	// keeps the heap proportional to touched lines at serving-scale
	// footprints (Config.ReferenceStore retains the dense backing as
	// the differential oracle). nLines counts the non-nil entries.
	lines  mem.Paged[*versionList]
	nLines int
	stats  Stats
}

// New creates a multiversioned memory. The active-transaction table drives
// garbage collection and coalescing decisions; it must be the same table
// the transactional engine registers transactions with. The clock is
// consulted so garbage collection never collapses a committed version into
// an in-flight (still revocable) install.
func New(cfg Config, clk *clock.Clock, active *clock.ActiveTable) *Memory {
	if cfg.Policy != Unbounded && cfg.MaxVersions <= 0 {
		panic("mvm: bounded policy requires MaxVersions > 0")
	}
	m := &Memory{cfg: cfg, clk: clk, active: active}
	if cfg.ReferenceStore {
		m.lines.SetReference()
	}
	return m
}

// safeHorizon returns the highest timestamp H such that no current or
// future snapshot, and no in-flight rollback, can need a version older
// than the newest version with ts <= H.
func (m *Memory) safeHorizon() clock.Timestamp {
	if s, ok := m.active.OldestActive(); ok {
		return s
	}
	if e, ok := m.clk.OldestInflight(); ok {
		return e - 1
	}
	return m.clk.Now()
}

// Config returns the memory's configuration.
func (m *Memory) Config() Config { return m.cfg }

// Stats returns a copy of the accumulated statistics.
func (m *Memory) Stats() Stats { return m.stats }

// ResetStats clears the statistics (used between warm-up and measurement).
func (m *Memory) ResetStats() { m.stats = Stats{} }

// visible returns the newest version with timestamp <= at, its depth from
// the newest version (1-based), and whether one exists. A line with no
// versions is all-zero at timestamp 0 and visible to everyone at depth 1.
func (vl *versionList) visible(at clock.Timestamp) (*version, int, bool) {
	for i := len(vl.v) - 1; i >= 0; i-- {
		if vl.v[i].ts <= at {
			return &vl.v[i], len(vl.v) - i, true
		}
	}
	return nil, 0, false
}

// ReadWord returns the word at addr as of snapshot timestamp at. ok is
// false when the required version has been discarded (DropOldest policy),
// in which case the reading transaction must abort (§3.1).
func (m *Memory) ReadWord(a mem.Addr, at clock.Timestamp) (val uint64, ok bool) {
	vl := m.lines.Load(uint64(mem.LineOf(a)))
	if vl == nil || len(vl.v) == 0 {
		m.stats.AccessDepth[0]++
		return 0, true
	}
	v, depth, ok := vl.visible(at)
	if !ok {
		if vl.truncated {
			m.stats.StaleReads++
			return 0, false
		}
		// The line was first written after this snapshot: the
		// snapshot sees the implicit all-zero version (§3).
		m.countDepth(len(vl.v) + 1)
		return 0, true
	}
	m.countDepth(depth)
	return v.data[mem.WordOf(a)], true
}

// countDepth updates the Table-2 access histogram for a read served by the
// depth-th most recent version.
func (m *Memory) countDepth(depth int) {
	if depth <= len(m.stats.AccessDepth) {
		m.stats.AccessDepth[depth-1]++
	} else {
		m.stats.AccessTail++
	}
}

// ReadLine returns the full line contents as of snapshot timestamp at.
// It does not update the access histogram; engines use it to materialise
// the copy-on-write base of a new version.
func (m *Memory) ReadLine(l mem.Line, at clock.Timestamp) (data [mem.WordsPerLine]uint64, ok bool) {
	vl := m.lines.Load(uint64(l))
	if vl == nil || len(vl.v) == 0 {
		return data, true
	}
	v, _, ok := vl.visible(at)
	if !ok {
		if vl.truncated {
			return data, false
		}
		return data, true // implicit all-zero initial version
	}
	return v.data, true
}

// NewestTS returns the timestamp of the most recent version of l, or 0 if
// the line has never been written. Commit-time write-write conflict
// detection compares this against the committing transaction's start
// timestamp (§4.2).
func (m *Memory) NewestTS(l mem.Line) clock.Timestamp {
	vl := m.lines.Load(uint64(l))
	if vl == nil || len(vl.v) == 0 {
		return 0
	}
	return vl.v[len(vl.v)-1].ts
}

// NewestLine returns the most recent contents of l (all zeros if never
// written). Non-transactional reads always target the newest version (§3).
//
//sitm:allow(chargelint) commit-path callers (copy-on-write base reads, word-granularity conflict checks) charge the line access through cache.Hierarchy.AccessVersioned; this is the uncharged data fetch behind that already-charged access.
func (m *Memory) NewestLine(l mem.Line) [mem.WordsPerLine]uint64 {
	vl := m.lines.Load(uint64(l))
	if vl == nil || len(vl.v) == 0 {
		return [mem.WordsPerLine]uint64{}
	}
	return vl.v[len(vl.v)-1].data
}

// Undo records what Install did to a line so that a conflicting commit can
// revert its optimistic installs (§4.2: "rolls back its newly created
// versions, making the validation process itself transactional").
type Undo struct {
	// Coalesced is true when the install overwrote the previous version
	// in place; PrevTS/PrevData then hold the overwritten version.
	Coalesced bool
	PrevTS    clock.Timestamp
	PrevData  [mem.WordsPerLine]uint64
}

// Install creates a new version of line l at timestamp ts whose contents
// are base overlaid with the words selected by mask. It applies garbage
// collection, coalescing and the capacity policy, in that order, exactly as
// a write proceeds in §3.1. It returns ErrCapacity when the AbortFifth
// policy rejects the version; otherwise the returned Undo lets the caller
// revert the install.
func (m *Memory) Install(l mem.Line, ts clock.Timestamp, base [mem.WordsPerLine]uint64, mask uint8, words *[mem.WordsPerLine]uint64) (Undo, error) {
	vlp := m.lines.Slot(uint64(l))
	vl := *vlp
	if vl == nil {
		vl = newVersionList()
		*vlp = vl
		m.nLines++
	}
	data := base
	for w := 0; w < mem.WordsPerLine; w++ {
		if mask&(1<<w) != 0 {
			data[w] = words[w]
		}
	}

	m.gc(vl, ts)

	// Version coalescing (§3.1): create a new version only if some
	// active transaction's snapshot falls between the previous version
	// and this one; otherwise overwrite the previous version in place.
	// (The committing transaction deregisters its own start first, as
	// in Figure 4, where TX1's commit coalesces across TX1's start.)
	if m.cfg.Coalesce && len(vl.v) > 0 {
		prev := &vl.v[len(vl.v)-1]
		if !m.active.AnyIn(prev.ts, ts) {
			u := Undo{Coalesced: true, PrevTS: prev.ts, PrevData: prev.data}
			prev.ts = ts
			prev.data = data
			m.stats.Coalesced++
			m.stats.Installs++
			return u, nil
		}
	}

	if m.cfg.Policy != Unbounded && len(vl.v) >= m.cfg.MaxVersions {
		switch m.cfg.Policy {
		case AbortFifth:
			return Undo{}, ErrCapacity
		case DropOldest:
			// Shift down instead of re-slicing so the slice keeps its
			// base (the inline array) and the coming append stays
			// allocation-free.
			copy(vl.v, vl.v[1:])
			vl.v = vl.v[:len(vl.v)-1]
			vl.truncated = true
			m.stats.DroppedOld++
		}
	}
	vl.v = append(vl.v, version{ts: ts, data: data})
	m.stats.Installs++
	if n := len(vl.v); n > m.stats.PeakVersions {
		m.stats.PeakVersions = n
	}
	return Undo{}, nil
}

// gc discards versions no snapshot can reach. A version is reachable when
// it is the newest version at or below some active transaction's start
// timestamp (or the safe horizon, which stands in for in-flight rollbacks
// and quiescent state), or the newest version overall. This realises the
// paper's bound: "the number of active transactions, respectively hardware
// threads, bounds the number of versions" (§3.1). The check runs on every
// write to the line rather than scanning the whole indirection matrix.
// installTS is the timestamp the caller is about to install; versions
// above it (at most the caller's own prior coalesce target) are kept.
//
// Both the version list and the active table's Starts() are ascending, so
// one merge walk decides reachability: version i is some snapshot s's
// newest exactly when s lands in [v[i].ts, v[i+1].ts). That replaces the
// per-call mark buffer and the per-start rescans of the original
// implementation — gc is allocation-free and O(versions + active).
func (m *Memory) gc(vl *versionList, installTS clock.Timestamp) {
	n := len(vl.v)
	if n < 2 {
		return
	}
	horizon := m.safeHorizon()
	starts := m.active.Starts()
	j := 0 // first start not yet below the current version's timestamp
	out := vl.v[:0]
	for i := 0; i < n; i++ {
		ts := vl.v[i].ts
		// The newest version always survives; versions newer than the
		// install point belong to unfinished commits and must stay
		// revocable.
		keep := i == n-1 || ts >= installTS
		if !keep {
			next := vl.v[i+1].ts
			if ts <= horizon && horizon < next {
				keep = true
			}
			for j < len(starts) && starts[j] < ts {
				j++
			}
			if j < len(starts) && starts[j] < next {
				keep = true
			}
		}
		if keep {
			out = append(out, vl.v[i])
		} else {
			m.stats.GCReclaimed++
		}
	}
	vl.v = out
}

// Revert rolls back the version of l installed at ts, restoring the
// coalesced-away version when the install overwrote one. The list is
// ascending, so the newest-first scan stops as soon as the timestamps
// pass below the target — a revert of a recent install (the only kind the
// commit path performs) touches O(1) entries.
func (m *Memory) Revert(l mem.Line, ts clock.Timestamp, u Undo) {
	vl := m.lines.Load(uint64(l))
	if vl == nil {
		return
	}
	for i := len(vl.v) - 1; i >= 0 && vl.v[i].ts >= ts; i-- {
		if vl.v[i].ts == ts {
			if u.Coalesced {
				vl.v[i] = version{ts: u.PrevTS, data: u.PrevData}
			} else {
				vl.v = append(vl.v[:i], vl.v[i+1:]...)
			}
			return
		}
	}
}

// VersionCount returns how many versions of l currently exist.
func (m *Memory) VersionCount(l mem.Line) int {
	vl := m.lines.Load(uint64(l))
	if vl == nil {
		return 0
	}
	return len(vl.v)
}

// VersionTimestamps returns the timestamps of l's versions in ascending
// order; useful for tests that check coalescing behaviour (Figure 4).
func (m *Memory) VersionTimestamps(l mem.Line) []clock.Timestamp {
	vl := m.lines.Load(uint64(l))
	if vl == nil {
		return nil
	}
	out := make([]clock.Timestamp, len(vl.v))
	for i, v := range vl.v {
		out[i] = v.ts
	}
	return out
}

// NonTxReadWord performs a non-transactional read: the newest version (§3).
func (m *Memory) NonTxReadWord(a mem.Addr) uint64 {
	line := m.NewestLine(mem.LineOf(a))
	return line[mem.WordOf(a)]
}

// NonTxWriteWord performs a non-transactional write, modifying the most
// current version in place (§3); the first write to a line allocates it at
// timestamp 0 so that every snapshot sees initial data.
//
//sitm:allow(chargelint) non-transactional initialisation runs outside the measured region (single-threaded workload setup) and is uncharged by design.
func (m *Memory) NonTxWriteWord(a mem.Addr, val uint64) {
	l := mem.LineOf(a)
	vlp := m.lines.Slot(uint64(l))
	vl := *vlp
	if vl == nil {
		vl = newVersionList()
		*vlp = vl
		m.nLines++
	}
	if len(vl.v) == 0 {
		vl.v = append(vl.v, version{ts: 0})
	}
	vl.v[len(vl.v)-1].data[mem.WordOf(a)] = val
}

// NonTxScan reports the non-zero words in [lo, hi) of every line's
// newest version, in ascending address order. It visits only the lines
// that have a version list (the others read as zero, §3), so it costs
// time in proportion to the allocated lines' pages, not to the range.
//
//sitm:allow(chargelint) non-transactional verification scan, run after every simulated thread has finished and uncharged by design, like NonTxWriteWord.
func (m *Memory) NonTxScan(lo, hi mem.Addr, f func(a mem.Addr, v uint64)) {
	first, end := mem.WordSpan(lo, hi)
	if first >= end {
		return
	}
	lineLo, lineHi := first/mem.WordsPerLine, (end-1)/mem.WordsPerLine+1
	m.lines.Scan(lineLo, lineHi, func(l0 uint64, run []*versionList) {
		for j, vl := range run {
			if vl == nil || len(vl.v) == 0 {
				continue
			}
			w0 := (l0 + uint64(j)) * mem.WordsPerLine
			data := &vl.v[len(vl.v)-1].data
			for w := max(w0, first); w < min(w0+mem.WordsPerLine, end); w++ {
				if v := data[w-w0]; v != 0 {
					f(mem.Addr(w*mem.WordBytes), v)
				}
			}
		}
	})
}

// AuditVersions checks every version list at quiescence: timestamps
// strictly ascend, and no line holds more than MaxVersions versions
// unless the policy is Unbounded. It reports the lowest offending line.
func (m *Memory) AuditVersions() error {
	var err error
	m.lines.Scan(0, math.MaxUint64, func(first uint64, run []*versionList) {
		for j, vl := range run {
			if err != nil || vl == nil {
				continue
			}
			l := first + uint64(j)
			if m.cfg.Policy != Unbounded && len(vl.v) > m.cfg.MaxVersions {
				err = fmt.Errorf("mvm: line %d holds %d versions, bound %d", l, len(vl.v), m.cfg.MaxVersions)
			}
			for i := 1; i < len(vl.v) && err == nil; i++ {
				if vl.v[i].ts <= vl.v[i-1].ts {
					err = fmt.Errorf("mvm: line %d version %d has timestamp %d after %d", l, i, vl.v[i].ts, vl.v[i-1].ts)
				}
			}
		}
	})
	return err
}

// LinesAllocated returns the number of lines with at least one version.
func (m *Memory) LinesAllocated() int { return m.nLines }

// StorePages returns the number of pages the version table has allocated
// — the footprint metric the serving-scale tests assert on (pages track
// touched lines, not the address span).
func (m *Memory) StorePages() int { return m.lines.Pages() }

// TotalVersions returns the total number of versions currently stored.
func (m *Memory) TotalVersions() int {
	n := 0
	m.lines.Scan(0, math.MaxUint64, func(_ uint64, run []*versionList) {
		for _, vl := range run {
			if vl != nil {
				n += len(vl.v)
			}
		}
	})
	return n
}
