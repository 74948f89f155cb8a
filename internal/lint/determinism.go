package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismAnalyzer guards the reproducibility invariant of the training
// and measurement pipelines: every random draw must come from an explicitly
// seeded *rand.Rand threaded through the call chain, and wall-clock time
// must never feed seeds or results. It fires only inside the deterministic
// packages (gen, ml, features, core, costmodel, experiments, bench); obs/progress
// wall-clock use (time.Now for durations via time.Since) is inherently
// allowed because only numeric conversions of time.Now and seeding contexts
// are flagged.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "flags global math/rand, time-seeded rand sources, and wall-clock values feeding results in deterministic packages",
	Run:  runDeterminism,
}

// deterministicScopes are the package names under internal/ whose outputs
// must be reproducible from explicit seeds.
var deterministicScopes = map[string]bool{
	"gen": true, "ml": true, "features": true,
	"core": true, "costmodel": true, "experiments": true,
	// bench: the same `go test -bench` text must convert into the same
	// report and the same pair of reports into the same verdicts
	// (BENCHMARKS.md); the clock has no place in either.
	"bench": true,
}

// inDeterministicScope reports whether an import path lies in one of the
// deterministic internal packages (or a sub-package of one).
func inDeterministicScope(path string) bool {
	segs := strings.Split(path, "/")
	for i, s := range segs {
		if s == "internal" && i+1 < len(segs) && deterministicScopes[segs[i+1]] {
			return true
		}
	}
	return false
}

// randConstructors are math/rand functions that build generators from an
// explicit source/seed; everything else at package level draws from the
// shared global source and is flagged.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

func isRandPkg(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

func runDeterminism(pass *Pass) {
	if !inDeterministicScope(pass.Pkg.Path) {
		return
	}
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := resolvedFunc(info, call)
			if fn == nil {
				return true
			}
			pkgPath := ""
			if fn.Pkg() != nil {
				pkgPath = fn.Pkg().Path()
			}
			sig, _ := fn.Type().(*types.Signature)

			// (1) Package-level math/rand calls outside the explicit-source
			// constructors use the shared global generator.
			if isRandPkg(pkgPath) && sig != nil && sig.Recv() == nil && !randConstructors[fn.Name()] {
				pass.Reportf(call.Pos(),
					"global math/rand call rand.%s draws from the shared process-wide source; thread a seeded *rand.Rand instead",
					fn.Name())
			}

			// (2) Wall clock feeding a seed: time.Now anywhere inside the
			// arguments of rand.New/NewSource/... or a Seed method/function.
			if seedingCall(fn, sig, pkgPath) {
				for _, arg := range call.Args {
					reportTimeNowWithin(pass, arg, "time.Now() used to seed a random source makes runs irreproducible; derive seeds from configuration")
				}
			}

			// (3) Wall clock converted to a number feeds results: flag
			// time.Now().UnixNano() and friends. Duration measurement via
			// time.Since(t0) never converts and stays allowed.
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && timeNumericMethods[fn.Name()] {
				if isTimeNowCall(info, sel.X) {
					pass.Reportf(call.Pos(),
						"time.Now().%s() feeds wall-clock values into results; deterministic code must not depend on the clock",
						fn.Name())
				}
			}
			return true
		})
	}
}

// timeNumericMethods are time.Time methods that turn the wall clock into a
// plain number (the only way clock values can leak into data or seeds).
var timeNumericMethods = map[string]bool{
	"Unix": true, "UnixNano": true, "UnixMilli": true, "UnixMicro": true,
	"Nanosecond": true,
}

// seedingCall reports whether fn is a random-source constructor or a Seed
// function/method.
func seedingCall(fn *types.Func, sig *types.Signature, pkgPath string) bool {
	if isRandPkg(pkgPath) && sig != nil && sig.Recv() == nil && randConstructors[fn.Name()] {
		return true
	}
	return fn.Name() == "Seed"
}

// reportTimeNowWithin reports every time.Now() call in the expression tree.
func reportTimeNowWithin(pass *Pass, e ast.Expr, msg string) {
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isTimeNowCall(pass.Pkg.Info, call) {
			pass.Reportf(call.Pos(), "%s", msg)
		}
		return true
	})
}

// isTimeNowCall reports whether e is a call to time.Now.
func isTimeNowCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := resolvedFunc(info, call)
	return fn != nil && fn.Name() == "Now" && fn.Pkg() != nil && fn.Pkg().Path() == "time"
}

// resolvedFunc returns the static *types.Func a call resolves to, or nil for
// dynamic calls, conversions, and builtins.
func resolvedFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	id := calleeFunc(call)
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
