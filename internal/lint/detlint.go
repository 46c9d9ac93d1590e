package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SimPackagePaths lists the packages whose code must be bit-for-bit
// deterministic: everything that runs under the lowest-cycle-first
// scheduler and therefore feeds the Figure 1/7/8 and Table 2 reports.
// detlint only fires inside these packages; the experiment runner
// (internal/exp) and the CLIs live outside the simulated world and may
// use wall clocks and goroutines freely.
var SimPackagePaths = map[string]bool{
	"repro/internal/aset":   true,
	"repro/internal/sched":  true,
	"repro/internal/core":   true,
	"repro/internal/twopl":  true,
	"repro/internal/sontm":  true,
	"repro/internal/eager":  true,
	"repro/internal/mvm":    true,
	"repro/internal/cache":  true,
	"repro/internal/mem":    true,
	"repro/internal/micro":  true,
	"repro/internal/stamp":  true,
	"repro/internal/txlib":  true,
	"repro/internal/clock":  true,
	"repro/internal/tm":     true,
	"repro/internal/mc":     true,
	"repro/internal/skew":   true,
	"repro/internal/report": true,
	"repro/internal/oltp":   true,
}

// ConcurrencyExemptPaths are the packages allowed to spawn goroutines and
// select: the deterministic scheduler itself (which confines real
// concurrency behind its run-one-thread-at-a-time token) and the
// shared-nothing experiment runner.
var ConcurrencyExemptPaths = map[string]bool{
	"repro/internal/sched": true,
	"repro/internal/exp":   true,
}

// ServicePackagePaths are the service-layer packages where wall clocks,
// goroutines, net/http and timers are the whole point — the sweep daemon
// and the cell/cache orchestration around the simulator. detlint never
// fires here (they are outside SimPackagePaths anyway; the explicit list
// documents the boundary and keeps it test-pinned), so service code needs
// no //sitm:allow noise. The line detlint holds is: nothing here may leak
// into a simulated result except through a deterministic CellResult.
var ServicePackagePaths = map[string]bool{
	"repro/internal/exp":   true,
	"repro/internal/sweep": true,
}

// wallClockFuncs are the package-level time functions that read or depend
// on the host's wall clock or timers.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// deterministicRandFuncs are the math/rand package-level functions that do
// NOT touch the global generator: constructors for explicitly seeded
// sources. Everything else at package level draws from the shared global
// state and is nondeterministic under concurrency.
var deterministicRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// DetLint forbids nondeterminism sources inside simulation packages:
// wall-clock time, the global math/rand generator, goroutines and select
// (outside the scheduler and the experiment runner), and map iteration
// with an order-sensitive body.
var DetLint = &Analyzer{
	Name: "detlint",
	Doc: `forbid nondeterminism sources in simulation packages

The evaluation contract (PR 1) is byte-identical reports at any -workers
count. Inside the simulation packages that means: no wall-clock reads
(time.Now/Since/...), no global math/rand (per-thread sched.Rand only),
no goroutines or select outside internal/sched and internal/exp, and no
ranging over a map when the body is order-sensitive (appends to a slice,
writes output, or accumulates floating-point values) — iterate sorted
keys instead, as internal/report's sortedKeys helper does.`,
	Run: runDetLint,
}

func runDetLint(pass *Pass) error {
	if ServicePackagePaths[pass.Pkg.Path()] {
		return nil
	}
	if !SimPackagePaths[pass.Pkg.Path()] {
		return nil
	}
	exempt := ConcurrencyExemptPaths[pass.Pkg.Path()]
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDetCall(pass, n)
			case *ast.GoStmt:
				if !exempt {
					pass.Reportf(n.Pos(), "goroutine in simulation code: real concurrency breaks determinism; only internal/sched and internal/exp may spawn goroutines")
				}
			case *ast.SelectStmt:
				if !exempt {
					pass.Reportf(n.Pos(), "select in simulation code: case choice is nondeterministic; only internal/sched and internal/exp may select")
				}
			case *ast.BlockStmt:
				checkStmtList(pass, n.List)
			case *ast.CaseClause:
				checkStmtList(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

// pkgQualifier resolves expr to an imported package path when expr is a
// package qualifier identifier ("time" in time.Now).
func pkgQualifier(pass *Pass, expr ast.Expr) (string, bool) {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := pass.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}

func checkDetCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	path, ok := pkgQualifier(pass, sel.X)
	if !ok {
		return
	}
	name := sel.Sel.Name
	switch {
	case path == "time" && wallClockFuncs[name]:
		pass.Reportf(call.Pos(), "wall-clock read in simulation code: time.%s varies run to run; use the simulated clock (internal/clock) or thread cycles (sched.Thread)", name)
	case (path == "math/rand" || path == "math/rand/v2") && !deterministicRandFuncs[name]:
		pass.Reportf(call.Pos(), "global math/rand call in simulation code: rand.%s draws from shared global state; use the per-thread deterministic sched.Rand", name)
	}
}

// checkStmtList inspects every map-range statement in one statement list,
// with the statements that follow it available for idiom recognition.
func checkStmtList(pass *Pass, stmts []ast.Stmt) {
	for i, stmt := range stmts {
		rng, ok := stmt.(*ast.RangeStmt)
		if !ok {
			continue
		}
		checkMapRange(pass, rng, stmts[i+1:])
	}
}

// checkMapRange flags `range m` over a map when the loop body is
// order-sensitive: it appends to a slice, writes output, or accumulates
// floating-point values. Two shapes are recognised as deterministic and
// exempt: iterating sorted keys (internal/report's sortedKeys pattern
// ranges a slice, so it never reaches this check), and the key-collection
// idiom — a body consisting solely of appends whose every target slice is
// sorted later in the enclosing block, which erases the iteration order.
func checkMapRange(pass *Pass, rng *ast.RangeStmt, rest []ast.Stmt) {
	tv, ok := pass.Info.Types[rng.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	reason := orderSensitive(pass, rng.Body)
	if reason == "" {
		return
	}
	if collected, ok := collectionTargets(rng.Body); ok && allSortedAfter(pass, collected, rest) {
		return
	}
	pass.Reportf(rng.Pos(), "map iteration with order-sensitive body (%s): iteration order is random; range over sorted keys instead (sortedKeys in internal/report)", reason)
}

// collectionTargets returns the slices a pure collection body appends to:
// every statement must have the form `s = append(s, ...)`. ok is false
// for any other body shape.
func collectionTargets(body *ast.BlockStmt) ([]string, bool) {
	var targets []string
	for _, stmt := range body.List {
		asg, ok := stmt.(*ast.AssignStmt)
		if !ok || asg.Tok != token.ASSIGN || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
			return nil, false
		}
		call, ok := asg.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return nil, false
		}
		if fun, ok := call.Fun.(*ast.Ident); !ok || fun.Name != "append" {
			return nil, false
		}
		lhs := types.ExprString(asg.Lhs[0])
		if types.ExprString(call.Args[0]) != lhs {
			return nil, false
		}
		targets = append(targets, lhs)
	}
	return targets, len(targets) > 0
}

// allSortedAfter reports whether every collected slice is passed to a
// sort.* or slices.* call in the statements following the loop.
func allSortedAfter(pass *Pass, targets []string, rest []ast.Stmt) bool {
	sorted := map[string]bool{}
	for _, stmt := range rest {
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if path, ok := pkgQualifier(pass, sel.X); ok && (path == "sort" || path == "slices") {
				sorted[types.ExprString(call.Args[0])] = true
			}
			return true
		})
	}
	for _, t := range targets {
		if !sorted[t] {
			return false
		}
	}
	return true
}

// orderSensitive reports why body depends on iteration order, or "".
func orderSensitive(pass *Pass, body *ast.BlockStmt) string {
	reason := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "append" || fun.Name == "print" || fun.Name == "println" {
					if obj := pass.Info.Uses[fun]; obj != nil {
						if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
							if fun.Name == "append" {
								reason = "appends to a slice"
							} else {
								reason = "writes output"
							}
						}
					}
				}
			case *ast.SelectorExpr:
				if path, ok := pkgQualifier(pass, fun.X); ok && path == "fmt" &&
					(strings.HasPrefix(fun.Sel.Name, "Print") || strings.HasPrefix(fun.Sel.Name, "Fprint")) {
					reason = "writes output"
				}
			}
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if t := pass.Info.TypeOf(n.Lhs[0]); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
						reason = "accumulates floating-point values"
					}
				}
			}
		}
		return reason == ""
	})
	return reason
}
