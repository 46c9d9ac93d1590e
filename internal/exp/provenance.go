package exp

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
)

// Provenance identifies the code that produces cell results. A cell
// result is a pure function of (cell, config, provenance) — the property
// PRs 1–5 pinned at byte-identity — which is what makes results
// content-addressable and location-independent.
//
// The cache key deliberately uses *source fingerprints* rather than the
// git revision: hashing the simulation sources directly means an engine
// edit invalidates only that engine's cells, an uncommitted edit can
// never masquerade as a clean-revision result, and a commit that touches
// no simulation code keeps the whole cache warm. The git revision (with
// a -dirty suffix for modified trees) is carried alongside for humans.
type Provenance struct {
	// GoVersion is runtime.Version(); figure bytes are pinned per
	// toolchain, so it participates in every key.
	GoVersion string `json:"go_version"`
	// GitRevision is the tree's revision, "-dirty"-suffixed when the
	// working tree has uncommitted changes, or "unknown". Informational:
	// it does not participate in cache keys.
	GitRevision string `json:"git_revision"`
	// Sim fingerprints the shared simulation sources (scheduler, memory
	// hierarchy, MVM, workloads, the cell layer itself): a change here
	// invalidates every cell.
	Sim string `json:"sim"`
	// Engines fingerprints each registered engine's defining sources by
	// lower-cased engine name: a change to one engine invalidates only
	// that engine's cells.
	Engines map[string]string `json:"engines"`
	// AllEngines is the combined engine fingerprint, used for engine
	// names without a dedicated source mapping (conservative: any
	// engine edit invalidates such cells).
	AllEngines string `json:"all_engines"`
}

// IsZero reports whether p carries no provenance at all.
func (p Provenance) IsZero() bool {
	return p.GoVersion == "" && p.Sim == "" && len(p.Engines) == 0
}

// CanCache reports whether p is strong enough to address a persistent
// cache: without source fingerprints a stored result could masquerade as
// a result of the current (possibly edited) tree.
func (p Provenance) CanCache() bool {
	return p.Sim != "" && p.Sim != fingerprintUnavailable
}

// engineFingerprint resolves the fingerprint for a cell's engine name.
func (p Provenance) engineFingerprint(engine string) string {
	if fp, ok := p.Engines[strings.ToLower(engine)]; ok {
		return fp
	}
	return p.AllEngines
}

// CellKey content-addresses one cell result: a hex SHA-256 over the cell
// coordinates, the JSON encoding of the cell configuration (the same
// encoding a sweep lease carries), the Go version and the relevant source
// fingerprints. Every CellConfig field is omitempty, so a field added off
// by default leaves existing keys alone. The schema is versioned; bump the
// prefix when the key composition changes.
func (p Provenance) CellKey(c Cell, cfg CellConfig) string {
	if cfg.Scale <= 1 {
		cfg.Scale = 0 // the cell layer treats Scale<=1 as the fast defaults
	}
	config, err := json.Marshal(cfg)
	if err != nil {
		panic(fmt.Sprintf("exp: encoding cell config: %v", err))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sitm-cell-v3\n")
	fmt.Fprintf(&b, "workload=%s\nengine=%s\nthreads=%d\nseed=%d\n",
		strings.ToLower(c.Workload), strings.ToLower(c.Engine), c.Threads, c.Seed)
	fmt.Fprintf(&b, "config=%s\n", config)
	fmt.Fprintf(&b, "go=%s\nsim=%s\nenginesrc=%s\n", p.GoVersion, p.Sim, p.engineFingerprint(c.Engine))
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

// fingerprintUnavailable marks provenance computed without access to the
// source tree; CanCache rejects it.
const fingerprintUnavailable = "unavailable"

// simSourceDirs are the module-relative directories whose sources
// determine every cell's result regardless of engine: the deterministic
// machine, the shared TM plumbing, the workloads, and the cell layer
// itself. internal/report is included because the commit-latency
// histogram recorded into every cell result (tm.Stats.CommitHist) gets
// its bucket geometry there. The figure renderers (internal/harness) and
// the service layer (internal/sweep) are deliberately absent — rendering
// and orchestration changes never invalidate simulated results.
var simSourceDirs = []string{
	"internal/aset",
	"internal/cache",
	"internal/clock",
	"internal/exp",
	"internal/mem",
	"internal/micro",
	"internal/mvm",
	"internal/oltp",
	"internal/report",
	"internal/sched",
	"internal/stamp",
	"internal/tm",
	"internal/txlib",
}

// engineSourceDirs maps lower-cased registered engine names to the
// directories that define them. SI-TM and SSI-TM share internal/core;
// all four engines are built on the shared base, internal/eager.
var engineSourceDirs = map[string][]string{
	"2pl":    {"internal/twopl", "internal/eager"},
	"sontm":  {"internal/sontm", "internal/eager"},
	"si-tm":  {"internal/core", "internal/eager"},
	"ssi-tm": {"internal/core", "internal/eager"},
}

var (
	provOnce sync.Once
	provCur  Provenance
)

// CurrentProvenance computes (once per process) the provenance of the
// running code: source fingerprints hashed from the module checkout this
// binary was built from, plus the git revision and Go version. Outside a
// source checkout the fingerprints degrade to "unavailable" and CanCache
// reports false.
func CurrentProvenance() Provenance {
	provOnce.Do(func() { provCur = ProvenanceAt(moduleRoot()) })
	return provCur
}

// ProvenanceAt computes provenance over the module checkout rooted at
// root (the directory holding go.mod). It is CurrentProvenance's worker,
// exported so tests can fingerprint synthetic trees.
func ProvenanceAt(root string) Provenance {
	p := Provenance{
		GoVersion:   runtime.Version(),
		GitRevision: GitRevision(root),
		Engines:     make(map[string]string, len(engineSourceDirs)),
	}
	p.Sim = fingerprintDirs(root, simSourceDirs)
	var engineNames []string
	for name := range engineSourceDirs {
		engineNames = append(engineNames, name)
	}
	sort.Strings(engineNames)
	var allDirs []string
	seen := map[string]bool{}
	for _, name := range engineNames {
		dirs := engineSourceDirs[name]
		p.Engines[name] = fingerprintDirs(root, dirs)
		for _, d := range dirs {
			if !seen[d] {
				seen[d] = true
				allDirs = append(allDirs, d)
			}
		}
	}
	p.AllEngines = fingerprintDirs(root, allDirs)
	return p
}

// moduleRoot locates the module checkout this source file was compiled
// from. The path is baked in at build time by the compiler, so it is
// valid whenever the sources are still present (go test, go run, CI, a
// binary run in its build tree) and absent only for relocated binaries.
func moduleRoot() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return ""
	}
	// file = <root>/internal/exp/provenance.go
	root := filepath.Dir(filepath.Dir(filepath.Dir(file)))
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return ""
	}
	return root
}

// fingerprintDirs hashes every non-test .go file under the given
// module-relative directories (sorted by path, content included) into one
// hex digest. Missing directories hash as absent — a tree layout change
// is a code change. An unreadable root degrades to "unavailable".
func fingerprintDirs(root string, dirs []string) string {
	if root == "" {
		return fingerprintUnavailable
	}
	h := sha256.New()
	for _, dir := range dirs {
		abs := filepath.Join(root, filepath.FromSlash(dir))
		entries, err := os.ReadDir(abs)
		if err != nil {
			fmt.Fprintf(h, "missing %s\n", dir)
			continue
		}
		var names []string
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			f, err := os.Open(filepath.Join(abs, name))
			if err != nil {
				fmt.Fprintf(h, "unreadable %s/%s\n", dir, name)
				continue
			}
			fmt.Fprintf(h, "file %s/%s\n", dir, name)
			_, cerr := io.Copy(h, f)
			f.Close()
			if cerr != nil {
				fmt.Fprintf(h, "unreadable %s/%s\n", dir, name)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// CurrentGitRevision reports the running code's git revision (with a
// "-dirty" suffix for modified trees): the artefact-stamping form of
// GitRevision, resolved against the module checkout this binary was
// built from.
func CurrentGitRevision() string { return GitRevision(moduleRoot()) }

// GitRevision reports the tree's revision with a "-dirty" suffix when the
// working tree has uncommitted changes, so a stamped artefact (BENCH
// json, cached cell records) can never masquerade as a clean-revision
// result. It prefers the VCS stamp baked into the binary's build info
// and falls back to asking git about the checkout at root; "unknown"
// when neither is available.
func GitRevision(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	if root == "" {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if rev == "" {
		return "unknown"
	}
	if status, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil &&
		len(strings.TrimSpace(string(status))) > 0 {
		rev += "-dirty"
	}
	return rev
}
