package tm

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/cache"
)

// EngineOptions carries the engine-level knobs of the evaluation (§6) in a
// representation-independent form, so that engine packages can register
// factories without the registry depending on their config types. Engines
// ignore options that do not apply to them.
type EngineOptions struct {
	// WordGranularity enables SI-TM's §4.2 word-level conflict filter.
	WordGranularity bool
	// UnboundedVersions configures the MVM with no version bound (the
	// Table 2 / Appendix A measurement).
	UnboundedVersions bool
	// DropOldest selects the alternative version-overflow policy (§3.1).
	DropOldest bool
	// NoCoalescing disables version coalescing (ablation).
	NoCoalescing bool
	// NoXlate disables the translation cache (ablation).
	NoXlate bool
	// ReferenceCache routes every simulated memory access through the
	// verbatim pre-fast-path cache model (cache.SlowHierarchy), the
	// differential oracle for the way-predicted implementation. Results
	// are bit-identical to the default; only simulator wall time
	// changes.
	ReferenceCache bool
	// ReferenceSets runs every aset.LineMap in the engines — the write
	// logs and SI-TM's promoted, read, reader and last-writer tables — in
	// its map-backed reference mode, the differential oracle for the
	// open addressing and Bloom signatures of the internal/aset fast
	// path. Results are bit-identical to the default; only simulator
	// wall time changes.
	ReferenceSets bool
	// ReferenceStore backs the engines' per-word/per-line tables (and
	// SI-TM's version table and presence filters) with the retained
	// dense mem store instead of the paged one, the differential oracle
	// for the paged backing (mem.Paged). Results are bit-identical to
	// the default; only memory footprint changes.
	ReferenceStore bool
	// CacheScratch, when non-nil, recycles simulated cache arrays
	// across the engines built with these options. It never changes
	// simulated behaviour; callers own the scratch's single-threaded
	// lifecycle (one per experiment worker) and must call the engine's
	// ReleaseCaches after the run to return the arrays.
	CacheScratch *cache.Scratch
}

// EngineFactory builds a fresh, fully isolated engine instance. Factories
// must not share mutable state between the engines they return: the
// experiment runner constructs one engine per plan cell and runs cells on
// concurrent OS threads (shared-nothing parallelism).
type EngineFactory func(EngineOptions) Engine

var (
	registryMu sync.RWMutex
	registry   = map[string]registration{}
)

type registration struct {
	display string
	factory EngineFactory
}

// Register records a named engine factory. Engine packages call it from
// init(); the canonical names are the paper's: "2PL", "SONTM", "SI-TM" and
// "SSI-TM". Lookup is case-insensitive. Registering a duplicate name
// panics — that is a programming error, not a runtime condition.
func Register(name string, f EngineFactory) {
	if f == nil {
		panic("tm: Register with nil factory")
	}
	key := strings.ToLower(name)
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[key]; dup {
		panic(fmt.Sprintf("tm: engine %q registered twice", name))
	}
	registry[key] = registration{display: name, factory: f}
}

// NewEngine constructs a fresh engine by registered name (case-insensitive).
// Unknown names return an error listing the registered engines.
func NewEngine(name string, o EngineOptions) (Engine, error) {
	registryMu.RLock()
	reg, ok := registry[strings.ToLower(name)]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("tm: unknown engine %q (registered: %s)",
			name, strings.Join(Engines(), ", "))
	}
	return reg.factory(o), nil
}

// Engines lists the registered engine names (as registered) in sorted
// order.
func Engines() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for _, reg := range registry {
		names = append(names, reg.display)
	}
	sort.Strings(names)
	return names
}
