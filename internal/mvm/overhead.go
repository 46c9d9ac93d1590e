package mvm

import (
	"math"

	"repro/internal/mem"
)

// Overheads quantifies §3.2 of the paper: the indirection layer stores,
// per cache-line address, four 32-bit version references and four 32-bit
// timestamps. With four live versions per address that is 2·32/512 =
// 12.5 % per line; in the worst case of a single live version the
// overhead is 50 % per allocated multiversioned line. Bundling B lines
// into one indirection entry divides the worst case by B at the price of
// copying whole bundles on the first write.
type Overheads struct {
	// LinesAllocated is the number of multiversioned line addresses
	// with at least one version.
	LinesAllocated int
	// VersionsLive is the total number of data versions currently held.
	VersionsLive int
	// IndirectionBytes is the version-list storage: 4 references + 4
	// timestamps of 4 bytes each per allocated line address.
	IndirectionBytes int
	// DataBytes is the storage for the versions themselves.
	DataBytes int
	// OverheadPct is IndirectionBytes as a percentage of DataBytes —
	// 12.5 % at full occupancy, 50 % in the single-version worst case.
	OverheadPct float64
	// BundledWorstPct is the worst-case overhead with the given bundle
	// factor (§3.2's example: 8 lines per bundle gives ~6 %).
	BundleFactor    int
	BundledWorstPct float64
}

// entryBytes is the per-address indirection cost: four 32-bit version
// references plus four 32-bit timestamps.
const entryBytes = 4*4 + 4*4

// MeasureOverheads reports the current §3.2 storage overheads of the
// memory, using bundleFactor lines per indirection entry for the bundled
// worst-case projection (use 1 for the unbundled architecture).
func (m *Memory) MeasureOverheads(bundleFactor int) Overheads {
	if bundleFactor < 1 {
		bundleFactor = 1
	}
	o := Overheads{BundleFactor: bundleFactor}
	m.lines.Scan(0, math.MaxUint64, func(_ uint64, run []*versionList) {
		for _, vl := range run {
			if vl == nil || len(vl.v) == 0 {
				continue
			}
			o.LinesAllocated++
			o.VersionsLive += len(vl.v)
		}
	})
	o.IndirectionBytes = o.LinesAllocated * entryBytes
	o.DataBytes = o.VersionsLive * mem.LineBytes
	if o.DataBytes > 0 {
		o.OverheadPct = 100 * float64(o.IndirectionBytes) / float64(o.DataBytes)
	}
	// Worst case: one live version per allocated address, one entry
	// shared by bundleFactor lines.
	o.BundledWorstPct = 100 * float64(entryBytes) / float64(bundleFactor*mem.LineBytes)
	return o
}
