package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// EngineLint enforces two engine-package disciplines. Construction
// (PR 1): tm.Engine implementations are built through the engine registry
// (tm.NewEngine / self-registered factories), never by writing a struct
// literal of an engine type in consumer code. Literals are allowed only
// inside the engine's defining package (where its New constructor lives)
// and in register.go files (the registration glue). Access tracking:
// inside engine packages and packages that import the scheduler —
// internal/eager holds every engine's write log — per-transaction
// read/write sets are the signature-backed tables of
// internal/aset, not mem.Line-keyed Go maps. The map-backed reference
// mode behind EngineOptions.ReferenceSets lives inside aset.LineMap.
var EngineLint = &Analyzer{
	Name: "enginelint",
	Doc: `engines must be constructed through the tm registry and track accesses with internal/aset

A direct struct literal of an engine type bypasses the registered
factory: it skips option mapping, produces engines the experiment runner
cannot name, and couples consumers to engine internals. Construct
engines with tm.NewEngine(name, opts); inside an engine package, use its
New constructor.

A mem.Line-keyed map in an engine package reintroduces the map-backed
access tracking the aset fast path replaced: it allocates per
transaction, hashes per access, and resets in O(capacity). Use
aset.LineMap (LineMap[struct{}] for a set of lines) or aset.WriteLog,
whose SetReference selects their map-backed reference mode.`,
	Run: runEngineLint,
}

func runEngineLint(pass *Pass) error {
	iface := findEngineInterface(pass.Pkg)
	if iface == nil {
		return nil // package cannot see tm.Engine, so no engine types either
	}
	if packageDefinesEngine(pass.Pkg, iface) || runsOnSimThreads(pass.Pkg) {
		checkLineMaps(pass)
	}
	for _, f := range pass.Files {
		allowed := filepath.Base(pass.Fset.Position(f.Pos()).Filename) == "register.go"
		if allowed {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			t := pass.Info.TypeOf(lit)
			if t == nil {
				return true
			}
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg() == pass.Pkg {
				return true
			}
			if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
				return true
			}
			if !types.Implements(types.NewPointer(named), iface) && !types.Implements(named, iface) {
				return true
			}
			pass.Reportf(lit.Pos(), "direct construction of engine %s.%s bypasses the tm registry; use tm.NewEngine(%q, opts) (or the package's New constructor from register.go)",
				named.Obj().Pkg().Name(), named.Obj().Name(), named.Obj().Name())
			return true
		})
	}
	return nil
}

// packageDefinesEngine reports whether the package declares a type
// implementing tm.Engine — the packages whose hot paths the access-set
// rule guards.
func packageDefinesEngine(pkg *types.Package, iface *types.Interface) bool {
	for _, name := range pkg.Scope().Names() {
		obj, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || obj.IsAlias() {
			continue
		}
		t := obj.Type()
		if _, isStruct := t.Underlying().(*types.Struct); !isStruct {
			continue
		}
		if types.Implements(types.NewPointer(t), iface) || types.Implements(t, iface) {
			return true
		}
	}
	return false
}

// checkLineMaps flags mem.Line-keyed map types anywhere outside tests:
// engine access sets must use internal/aset.
func checkLineMaps(pass *Pass) {
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			mt, ok := n.(*ast.MapType)
			if !ok {
				return true
			}
			key := pass.Info.TypeOf(mt.Key)
			if key == nil || !isMemLine(key) {
				return true
			}
			pass.Reportf(mt.Pos(), "mem.Line-keyed map in engine package: track access sets with internal/aset (LineMap/WriteLog)")
			return true
		})
	}
}

// isMemLine matches the mem.Line address type (and testdata stand-ins in
// a package named mem).
func isMemLine(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Name() != "Line" {
		return false
	}
	path := named.Obj().Pkg().Path()
	return path == "repro/internal/mem" || path == "mem" || strings.HasSuffix(path, "/mem")
}

// findEngineInterface locates the tm.Engine interface among the package's
// transitive imports (packages implementing or consuming engines always
// import tm, directly or through the engine package).
func findEngineInterface(root *types.Package) *types.Interface {
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package) *types.Interface
	walk = func(p *types.Package) *types.Interface {
		if seen[p] {
			return nil
		}
		seen[p] = true
		if isTMPath(p.Path()) {
			if obj, ok := p.Scope().Lookup("Engine").(*types.TypeName); ok {
				if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
					return iface
				}
			}
		}
		for _, imp := range p.Imports() {
			if iface := walk(imp); iface != nil {
				return iface
			}
		}
		return nil
	}
	return walk(root)
}

// isTMPath matches the tm package (and testdata stand-ins named tm).
func isTMPath(path string) bool {
	return path == "repro/internal/tm" || path == "tm" || strings.HasSuffix(path, "/tm")
}
