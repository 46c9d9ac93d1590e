package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// yieldTouchMethods lists, per simulated-storage package (matched by
// import-path suffix), the methods whose call constitutes a simulated
// shared-memory access: multiversioned-memory reads/installs, cache
// hierarchy accesses and invalidations, and the dense word/line tables
// engines use as their backing store. Metadata getters (Config, Stats,
// VersionCount) and host-side pool management (Release) are not touches.
var yieldTouchMethods = map[string]map[string]bool{
	"mvm": {
		"ReadWord": true, "ReadLine": true, "NewestTS": true,
		"NewestLine": true, "Install": true, "Revert": true,
		"NonTxReadWord": true, "NonTxWriteWord": true,
		"Checkpoint": true, "Rollback": true,
	},
	"cache": {
		"Access": true, "AccessVersioned": true,
		"Invalidate": true, "InvalidateData": true,
		"InvalidatePrivate": true, "InvalidateXlate": true,
		"InvalidateVersions": true,
	},
	"mem": {
		"Load": true, "Store": true, "Slot": true, "Slice": true,
		"Range": true,
	},
}

// YieldLint is the static soundness prerequisite for the model checker's
// claim that charged yield points are the complete set of schedule
// decision points (see DESIGN.md "Model checking"): inside a package
// that defines a tm.Engine, every simulated shared-memory access must be
// reachable only through functions that charge cycles on the simulated
// thread (sched.Thread.Tick / Stall — the only places the conductor can
// switch threads). An access reachable without a yield point is a hidden
// interleaving the schedule-space enumeration would never exercise.
var YieldLint = &Analyzer{
	Name: "yieldlint",
	Doc: `simulated shared-memory accesses must sit behind Tick/Stall yield points

sitm-check enumerates exactly the interleavings the conductor admits, and
the conductor only switches threads at Tick/Stall. A function in an
engine package that reads or writes simulated storage (mvm, the cache
hierarchy, the dense word tables) without charging cycles — directly or
in every intra-package caller — is a memory access the enumeration never
interleaves against: the model checker's verdicts would be unsound.
Exported functions are entry points callable from outside the package,
so they must charge in their own body; unexported helpers may instead be
covered by their callers. Deliberately unscheduled paths (non-
transactional initialisation, end-of-run verification) carry a
//sitm:allow(yieldlint) directive stating why.`,
	Run: runYieldLint,
}

// yieldFunc is the per-function summary the coverage fixpoint runs on.
type yieldFunc struct {
	decl    *ast.FuncDecl
	touch   types.Object // first storage method this body calls, or nil
	charges bool         // body calls Thread.Tick or Thread.Stall
	entry   bool         // exported on an exported receiver: callable uncharged from outside
	callers map[*yieldFunc]bool
	callees []types.Object // in-package functions this body calls
	covered bool
}

func runYieldLint(pass *Pass) error {
	iface := findEngineInterface(pass.Pkg)
	if iface == nil || !packageDefinesEngine(pass.Pkg, iface) {
		return nil
	}

	// Summarise every function: what it touches, whether it charges,
	// and which in-package functions it calls. Calls inside function
	// literals are attributed to the enclosing declaration — the
	// closure runs on the same simulated thread.
	funcs := map[types.Object]*yieldFunc{}
	var order []*yieldFunc
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj := pass.Info.Defs[fn.Name]
			if obj == nil {
				continue
			}
			yf := &yieldFunc{decl: fn, callers: map[*yieldFunc]bool{}}
			recv := receiverTypeName(fn)
			yf.entry = fn.Name.IsExported() && (recv == "" || ast.IsExported(recv))
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeObject(pass, call)
				if callee == nil {
					return true
				}
				switch {
				case isYieldCharge(callee):
					yf.charges = true
				case isYieldTouch(callee):
					if yf.touch == nil {
						yf.touch = callee
					}
				case callee.Pkg() == pass.Pkg:
					yf.callees = append(yf.callees, callee)
				}
				return true
			})
			funcs[obj] = yf
			order = append(order, yf)
		}
	}
	for _, yf := range order {
		for _, callee := range yf.callees {
			if target, ok := funcs[callee]; ok {
				target.callers[yf] = true
			}
		}
	}

	// Least fixpoint from the charging roots: a function is covered if
	// it charges itself, or if it is internal, has callers, and every
	// caller is covered. Cycles of uncharged helpers stay uncovered.
	for _, yf := range order {
		yf.covered = yf.charges
	}
	for changed := true; changed; {
		changed = false
		for _, yf := range order {
			if yf.covered || yf.entry || len(yf.callers) == 0 {
				continue
			}
			all := true
			for caller := range yf.callers {
				if !caller.covered {
					all = false
					break
				}
			}
			if all {
				yf.covered, changed = true, true
			}
		}
	}

	for _, yf := range order {
		if yf.touch == nil || yf.covered {
			continue
		}
		how := "charge cycles (Tick/Stall on the sched.Thread) in its body or in every caller"
		if yf.entry {
			how = "exported entry points must charge in their own body"
		}
		pass.Reportf(yf.decl.Name.Pos(),
			"%s accesses simulated shared memory (%s.%s) without a reachable Tick/Stall yield point — a hidden interleaving the model checker never enumerates; %s, or document the exception with //sitm:allow(yieldlint)",
			yf.decl.Name.Name, yf.touch.Pkg().Name(), yf.touch.Name(), how)
	}
	return nil
}

// isYieldCharge matches sched.Thread's charging methods — the operations
// that hand control back to the conductor. TickHinted and LocalTick
// count: under the reference conductors the model checker enumerates
// with, both behave exactly like Tick, so an access behind them is a
// decision point the enumeration does interleave (the batching they
// enable under the tree conductor is separately proven observation-
// equivalent by the differential oracles). Fence does NOT count — it
// charges nothing and is a no-op under the reference conductors, so it
// never yields where the model checker looks.
func isYieldCharge(obj types.Object) bool {
	switch obj.Name() {
	case "Tick", "Stall", "TickHinted", "LocalTick":
		return receiverInPackage(obj, "sched", "Thread")
	}
	return false
}

// isYieldTouch reports whether obj is a simulated-storage access method
// from yieldTouchMethods.
func isYieldTouch(obj types.Object) bool {
	for pkg, methods := range yieldTouchMethods {
		if methods[obj.Name()] && receiverInPackage(obj, pkg, "") {
			return true
		}
	}
	return false
}

// receiverInPackage reports whether obj is a method whose receiver's
// named base type is declared in a package with the given path suffix
// (and, when typeName is non-empty, has that name).
func receiverInPackage(obj types.Object, pkgSuffix, typeName string) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	if typeName != "" && named.Obj().Name() != typeName {
		return false
	}
	path := named.Obj().Pkg().Path()
	return path == pkgSuffix || strings.HasSuffix(path, "/"+pkgSuffix)
}
