package cfg

import (
	"go/ast"
	"go/types"
)

// This file is the dataflow layer the analyzers share: a derived-value
// (taint) propagation helper, and the "value outlives the iteration"
// escape-ish tracking the hotalloc analyzer uses to tell per-iteration
// garbage from result building.

// defObj resolves the object an identifier defines or assigns.
func defObj(id *ast.Ident, info *types.Info) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// Derived computes the set of objects whose value may (transitively) derive
// from expressions matching seed, by fixpoint over the assignments of the
// whole function subtree — nested function literals included, so values
// captured by closures keep their taint. The analysis is flow-insensitive
// (a may-derive superset), which is the safe direction for the analyzers
// built on it.
func Derived(fn ast.Node, info *types.Info, seed func(ast.Expr) bool) map[types.Object]bool {
	derived := make(map[types.Object]bool)
	tainted := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if found {
				return false
			}
			if ex, ok := n.(ast.Expr); ok && seed(ex) {
				found = true
				return false
			}
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && derived[obj] {
					found = true
					return false
				}
			}
			return true
		})
		return found
	}
	for changed := true; changed; {
		changed = false
		mark := func(id *ast.Ident) {
			obj := defObj(id, info)
			if obj != nil && !derived[obj] {
				derived[obj] = true
				changed = true
			}
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				// a, b := f(x): any tainted RHS taints every LHS (conservative
				// for multi-value assignments, exact for 1:1).
				if len(s.Lhs) == len(s.Rhs) {
					for i, lhs := range s.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" && tainted(s.Rhs[i]) {
							mark(id)
						}
					}
				} else {
					any := false
					for _, rhs := range s.Rhs {
						if tainted(rhs) {
							any = true
						}
					}
					if any {
						for _, lhs := range s.Lhs {
							if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
								mark(id)
							}
						}
					}
				}
			case *ast.ValueSpec:
				for _, rhs := range s.Values {
					if tainted(rhs) {
						for _, id := range s.Names {
							if id.Name != "_" {
								mark(id)
							}
						}
					}
				}
			case *ast.RangeStmt:
				if tainted(s.X) {
					for _, e := range []ast.Expr{s.Key, s.Value} {
						if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
							mark(id)
						}
					}
				}
			}
			return true
		})
	}
	return derived
}

// Retained returns the objects whose value outlives the loop iteration that
// produced it — returned, stored through a selector/index/dereference, sent
// on a channel, captured by a closure, or appended into another slice. One
// level of direct evidence: aliases created by plain variable copies do not
// propagate, which is enough to separate loop-local garbage from escaping
// results. Plain call arguments do NOT count: a scratch buffer handed to a
// callee is still a scratch buffer, and hoisting it out of the loop stays
// correct.
func Retained(fn ast.Node, info *types.Info) map[types.Object]bool {
	leaves := make(map[types.Object]bool)
	markIdents := func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					leaves[obj] = true
				}
			}
			return true
		})
	}
	ast.Inspect(fn, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				markIdents(res)
			}
		case *ast.CallExpr:
			// append(dst, x...): the appended values are retained by dst.
			if id, ok := s.Fun.(*ast.Ident); ok && id.Name == "append" && info.Uses[id] != nil && info.Uses[id].Pkg() == nil {
				for _, arg := range s.Args[1:] {
					markIdents(arg)
				}
			}
		case *ast.SendStmt:
			markIdents(s.Value)
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				if _, ok := lhs.(*ast.Ident); ok {
					continue
				}
				// Assignment through a selector, index, or dereference
				// publishes the RHS beyond the local frame.
				if i < len(s.Rhs) {
					markIdents(s.Rhs[i])
				}
			}
		case *ast.FuncLit:
			// Everything a closure references may outlive the enclosing
			// function's frame.
			ast.Inspect(s.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil {
						leaves[obj] = true
					}
				}
				return true
			})
			return false
		}
		return true
	})
	return leaves
}
