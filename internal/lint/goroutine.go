package lint

import (
	"go/ast"
	"go/types"
)

// GoroutineSafetyAnalyzer checks the worker-pool patterns the parallel
// paths (the kernels' worker team, ml's fold pool, perf's labeling pool) are
// built on. Loop-variable capture is not checked: the module declares
// go 1.22, where every iteration has its own loop variables.
//
//   - sync.WaitGroup.Add must happen before the goroutine is spawned, never
//     inside it, or Wait can return early;
//   - a write s[i] = v to a captured slice from inside a goroutine is only
//     race-free when the index is goroutine-local (index-disjoint
//     partitioning, the invariant the parallel CV depends on); writes to
//     captured maps are never safe without a lock.
var GoroutineSafetyAnalyzer = &Analyzer{
	Name: "goroutinesafety",
	Doc:  "flags WaitGroup.Add inside goroutines and non-partitioned shared writes",
	Run:  runGoroutineSafety,
}

func runGoroutineSafety(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
			if !ok {
				return true
			}
			checkGoroutineBody(pass, lit)
			return true
		})
	}
}

func checkGoroutineBody(pass *Pass, lit *ast.FuncLit) {
	info := pass.Pkg.Info
	localTo := func(obj types.Object) bool {
		return obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End()
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.CallExpr:
			// WaitGroup.Add inside the spawned goroutine races with Wait.
			fn := resolvedFunc(info, t)
			if fn != nil && fn.Name() == "Add" && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
				if recv := receiverNamed(fn); recv == "WaitGroup" {
					pass.Reportf(t.Pos(),
						"WaitGroup.Add inside the spawned goroutine can run after Wait returns; call Add before the go statement")
				}
			}

		case *ast.AssignStmt:
			for _, lhs := range t.Lhs {
				checkSharedIndexWrite(pass, lhs, localTo)
			}
		case *ast.IncDecStmt:
			checkSharedIndexWrite(pass, t.X, localTo)
		}
		return true
	})
}

// checkSharedIndexWrite flags writes through captured slices with fully
// captured (or constant) indices, and any write through a captured map.
func checkSharedIndexWrite(pass *Pass, lhs ast.Expr, localTo func(types.Object) bool) {
	info := pass.Pkg.Info
	for {
		switch t := lhs.(type) {
		case *ast.ParenExpr:
			lhs = t.X
			continue
		case *ast.SelectorExpr:
			lhs = t.X
			continue
		case *ast.StarExpr:
			lhs = t.X
			continue
		case *ast.IndexExpr:
			base, ok := ast.Unparen(t.X).(*ast.Ident)
			if ok {
				obj := info.Uses[base]
				if obj != nil && !localTo(obj) {
					switch info.TypeOf(base).Underlying().(type) {
					case *types.Map:
						pass.Reportf(t.Pos(),
							"write to captured map %s from a goroutine; map writes race — guard with a lock or restructure",
							base.Name)
					case *types.Slice:
						if !indexIsLocal(info, t.Index, localTo) {
							pass.Reportf(t.Pos(),
								"write to captured slice %s with a non-goroutine-local index; partition writes by a goroutine-local index or synchronize",
								base.Name)
						}
					}
				}
			}
			lhs = t.X
			continue
		}
		return
	}
}

// indexIsLocal reports whether the index expression involves at least one
// identifier declared inside the goroutine (parameter or local) — the
// signature of index-disjoint partitioning.
func indexIsLocal(info *types.Info, idx ast.Expr, localTo func(types.Object) bool) bool {
	local := false
	ast.Inspect(idx, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				if _, isVar := obj.(*types.Var); isVar && localTo(obj) {
					local = true
				}
			}
		}
		return true
	})
	return local
}

// receiverNamed returns the name of the method's receiver named type, or "".
func receiverNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
