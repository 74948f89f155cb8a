package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"wise/internal/lint/cfg"
)

// HotAllocAnalyzer guards the hot-path packages against per-iteration heap
// traffic: the SpMV kernels, the cost model, the measurement harness, and
// feature extraction dominate WISE's prediction overhead (PAPER.md §6), so a
// make/new inside a loop, a closure minted per iteration, fmt boxing, or an
// append with no preallocated capacity is a real throughput regression, not a
// style nit. The analyzer is CFG-driven: loop membership comes from natural
// loops (internal/lint/cfg), so allocations on break/return/panic paths —
// which cannot reach the back edge — are never flagged, and every message
// carries the loop-nesting depth. Allocations whose value is retained beyond
// the iteration (returned, stored, appended, captured) are result building,
// not garbage, and are exempt from the hoist check; appends are instead held
// to the prealloc-capacity rule.
var HotAllocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "flags per-iteration allocations, closures, fmt boxing, and append-without-prealloc in loops of the hot packages (kernels, costmodel, perf, features, serve, bench)",
	Run:  runHotAlloc,
}

// hotScopes are the package names under internal/ whose loops are
// performance-critical.
var hotScopes = map[string]bool{
	"kernels": true, "costmodel": true, "perf": true, "features": true,
	"serve": true,
	// bench: the converter reads every line of a benchmark run, thousands
	// per report, and the comparator walks every row; neither should
	// allocate per line or per row beyond the rows it keeps.
	"bench": true,
}

func inHotScope(path string) bool {
	segs := strings.Split(path, "/")
	for i, s := range segs {
		if s == "internal" && i+1 < len(segs) && hotScopes[segs[i+1]] {
			return true
		}
	}
	return false
}

func runHotAlloc(pass *Pass) {
	if !inHotScope(pass.Pkg.Path) {
		return
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			evidence := preallocEvidence(pass, fd.Body)
			for _, unit := range functionUnits(fd) {
				checkHotUnit(pass, unit, evidence)
			}
		}
	}
}

// functionUnits returns the function declaration plus every nested function
// literal, each analyzed against its own control-flow graph.
func functionUnits(fd *ast.FuncDecl) []ast.Node {
	units := []ast.Node{fd}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			units = append(units, lit)
		}
		return true
	})
	return units
}

// unitBody returns the body of a function unit.
func unitBody(unit ast.Node) *ast.BlockStmt {
	switch u := unit.(type) {
	case *ast.FuncDecl:
		return u.Body
	case *ast.FuncLit:
		return u.Body
	}
	return nil
}

// preallocEvidence records, for the whole declaration subtree, the targets
// that were sized before use: `x := make([]T, n)` / `make([]T, 0, c)`
// assignments and composite-literal fields initialized with a sized make
// (`Foo{Names: make([]string, 0, c)}` assigned to v yields "v.Names").
// Evidence is keyed by the printed expression so selector targets work.
func preallocEvidence(pass *Pass, body *ast.BlockStmt) map[string]bool {
	ev := make(map[string]bool)
	record := func(target ast.Expr, rhs ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			return
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "make" || len(call.Args) < 2 {
			return
		}
		if len(call.Args) == 2 {
			if lit, ok := call.Args[1].(*ast.BasicLit); ok && lit.Value == "0" {
				return // make([]T, 0) is explicitly no capacity
			}
		}
		ev[exprString(pass, target)] = true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, rhs := range s.Rhs {
				record(s.Lhs[i], rhs)
				if cl, ok := ast.Unparen(rhs).(*ast.CompositeLit); ok {
					for _, elt := range cl.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						if key, ok := kv.Key.(*ast.Ident); ok {
							field := &ast.SelectorExpr{X: s.Lhs[i], Sel: key}
							record(field, kv.Value)
						}
					}
				}
			}
		case *ast.ValueSpec:
			for i, v := range s.Values {
				if i < len(s.Names) {
					record(s.Names[i], v)
				}
			}
		}
		return true
	})
	return ev
}

func checkHotUnit(pass *Pass, unit ast.Node, evidence map[string]bool) {
	body := unitBody(unit)
	if body == nil {
		return
	}
	g := cfg.FuncGraph(unit)
	if g == nil {
		return
	}
	info := pass.Pkg.Info
	retained := cfg.Retained(unit, info)

	// Function literals that are go/defer targets run once per spawn, not
	// per iteration of the spawn loop in any hot sense; skip those.
	spawned := make(map[*ast.FuncLit]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		var call *ast.CallExpr
		switch s := n.(type) {
		case *ast.GoStmt:
			call = s.Call
		case *ast.DeferStmt:
			call = s.Call
		default:
			return true
		}
		if lit, ok := call.Fun.(*ast.FuncLit); ok {
			spawned[lit] = true
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			if depth := g.LoopDepthAt(s.Pos()); depth >= 1 && !spawned[s] {
				pass.Reportf(s.Pos(),
					"function literal created inside loop (depth %d) allocates a closure every iteration; hoist it out of the loop", depth)
			}
			return false // the literal's own body is a separate unit
		case *ast.AssignStmt:
			checkAllocAssign(pass, g, info, s, retained)
		case *ast.CallExpr:
			checkAppendAndBoxing(pass, g, info, s, evidence, unit)
		}
		return true
	})
}

// checkAllocAssign flags `x := make(...)` / `new(...)` / `&T{...}` / slice or
// map literals inside a loop when x is a plain local that is not retained
// beyond the iteration — scratch space that should be hoisted and reused.
func checkAllocAssign(pass *Pass, g *cfg.Graph, info *types.Info, s *ast.AssignStmt, retained map[types.Object]bool) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, rhs := range s.Rhs {
		id, ok := s.Lhs[i].(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		what := allocKind(info, rhs)
		if what == "" {
			continue
		}
		depth := g.LoopDepthAt(s.Pos())
		if depth < 1 {
			continue
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil || retained[obj] {
			continue // result building, not per-iteration garbage
		}
		pass.Reportf(s.Pos(),
			"%s allocates %q every loop iteration (depth %d); hoist the buffer out of the loop and reuse it", what, id.Name, depth)
	}
}

// allocKind classifies an expression as a heap allocation worth hoisting.
func allocKind(info *types.Info, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && (id.Name == "make" || id.Name == "new") {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b != nil {
				return id.Name
			}
		}
	case *ast.UnaryExpr:
		if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
			return "&composite literal"
		}
	case *ast.CompositeLit:
		if tv, ok := info.Types[x]; ok {
			switch tv.Type.Underlying().(type) {
			case *types.Slice, *types.Map:
				return "composite literal"
			}
		}
	}
	return ""
}

// fmtAllocFuncs are the fmt constructors that box every argument and
// allocate their result.
var fmtAllocFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true,
}

// checkAppendAndBoxing flags fmt boxing calls and append-without-prealloc
// inside loops.
func checkAppendAndBoxing(pass *Pass, g *cfg.Graph, info *types.Info, call *ast.CallExpr, evidence map[string]bool, unit ast.Node) {
	depth := g.LoopDepthAt(call.Pos())
	if depth < 1 {
		return
	}
	if fn := resolvedFunc(info, call); fn != nil && fn.Pkg() != nil &&
		fn.Pkg().Path() == "fmt" && fmtAllocFuncs[fn.Name()] {
		pass.Reportf(call.Pos(),
			"fmt.%s inside loop (depth %d) allocates and boxes its arguments every iteration; precompute the strings or use strconv", fn.Name(), depth)
		return
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b == nil {
		return
	}
	// The capacity rule only makes sense for a settable target that could
	// have been sized before the loop; clone idioms like
	// append([]T(nil), src...) are deliberate per-iteration copies.
	if !sideEffectFree(call.Args[0]) {
		return
	}
	target := exprString(pass, call.Args[0])
	if evidence[target] {
		return
	}
	fix := preallocFix(pass, unit, call)
	if fix != nil {
		pass.ReportfFix(call.Pos(), fix,
			"append to %q inside loop (depth %d) without preallocated capacity; size the slice before the loop", target, depth)
	} else {
		pass.Reportf(call.Pos(),
			"append to %q inside loop (depth %d) without preallocated capacity; size the slice before the loop", target, depth)
	}
}
