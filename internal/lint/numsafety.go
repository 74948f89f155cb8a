package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// NumSafetyAnalyzer guards the numeric boundaries where WISE's pipeline
// silently corrupts data instead of failing. Three rules, all scoped to the
// numeric packages (numScopes):
//
//  1. Narrowing conversions of integer index/size arithmetic — int32(nnz),
//     int32(rows*cols) — truncate silently past 2^31. CSR column indices are
//     int32 by design (ColIdx), so conversions are legitimate when guarded:
//     a function that mentions the math.MaxInt32/MaxInt64 family or calls a
//     bounds-checking helper (name matching valid/fits/bound/check/limit/
//     overflow) is exempt; an unguarded conversion is a finding.
//
//  2. Float accumulators compared to an exact constant with == or != —
//     a sum of rounding errors is never exactly 0.0; the repo's floateq
//     analyzer covers general comparisons, this rule targets the
//     accumulate-then-test-zero shape it deliberately exempts elsewhere
//     (loop-carried += / -= variables).
//
//  3. Training entry points (Fit*/Train* on feature matrices) must reject
//     non-finite inputs: one NaN feature poisons every split threshold a
//     tree learns, with no error anywhere downstream. The function itself —
//     or a same-package callee one level deep (a Validate method) — must
//     call math.IsNaN or math.IsInf.
var NumSafetyAnalyzer = &Analyzer{
	Name:     "numsafety",
	Category: "numeric",
	Doc: "Unguarded int->int32/int16 truncations in index arithmetic, " +
		"float accumulators compared exactly to constants, and Fit/Train " +
		"entry points that never screen NaN/Inf inputs",
	Run: runNumSafety,
}

// numScopes are the internal/ packages where these rules apply: the sparse
// kernels and matrix formats (index arithmetic), the feature extractor and
// cost model (float accumulation), and the ML stack (training inputs).
var numScopes = map[string]bool{
	"kernels": true, "matrix": true, "features": true,
	"costmodel": true, "ml": true,
}

func inNumScope(path string) bool {
	segs := strings.Split(path, "/")
	for i, s := range segs {
		if s == "internal" && i+1 < len(segs) && numScopes[segs[i+1]] {
			return true
		}
	}
	return false
}

func runNumSafety(pass *Pass) {
	if !inNumScope(pass.Pkg.Path) {
		return
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkTruncations(pass, fd)
			checkAccumulatorCompare(pass, fd)
			checkTrainingGuard(pass, fd)
		}
	}
}

// --- rule 1: narrowing integer conversions ---

var boundsHelperRE = regexp.MustCompile(`(?i)(valid|fits|bound|check|limit|overflow)`)

// hasOverflowGuard reports whether the function shows any evidence of
// thinking about the narrowing: a math.MaxInt*/MaxUint* mention or a call to
// a bounds-checking helper.
func hasOverflowGuard(fd *ast.FuncDecl) bool {
	guarded := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SelectorExpr:
			if strings.HasPrefix(e.Sel.Name, "MaxInt") || strings.HasPrefix(e.Sel.Name, "MaxUint") ||
				strings.HasPrefix(e.Sel.Name, "MinInt") {
				guarded = true
			}
		case *ast.CallExpr:
			if id := calleeFunc(e); id != nil && boundsHelperRE.MatchString(id.Name) {
				guarded = true
			}
		}
		return !guarded
	})
	return guarded
}

// narrowTarget reports whether t is an integer type narrower than int64/int.
func narrowTarget(t types.Type) (string, bool) {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return "", false
	}
	switch b.Kind() {
	case types.Int32, types.Int16, types.Int8, types.Uint32, types.Uint16, types.Uint8:
		return b.Name(), true
	}
	return "", false
}

// wideInt reports whether t is int or int64 — the types whose values can
// exceed a 32-bit target.
func wideInt(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Kind() == types.Int || b.Kind() == types.Int64
}

func checkTruncations(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	guarded := hasOverflowGuard(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		// A conversion is a call whose Fun resolves to a type.
		tv, ok := info.Types[call.Fun]
		if !ok || !tv.IsType() {
			return true
		}
		name, narrow := narrowTarget(tv.Type)
		if !narrow {
			return true
		}
		arg := ast.Unparen(call.Args[0])
		argTV, ok := info.Types[arg]
		if !ok || !wideInt(argTV.Type) {
			return true
		}
		// Constants the type-checker already proved in range are fine.
		if argTV.Value != nil {
			return true
		}
		// Single-byte/char-ish conversions of loop counters over small
		// literals are noise; only flag arguments that look like index or
		// size arithmetic: a binary expression, or an identifier whose name
		// suggests a dimension.
		if !indexLike(arg) {
			return true
		}
		if guarded {
			return true
		}
		pass.Reportf(call.Pos(), "%s(%s) truncates silently past %s range; bound-check the value (compare against math.Max%s) or keep the wide type",
			name, exprText(arg), name, strings.ToUpper(name[:1])+name[1:])
		return true
	})
}

// indexLike reports whether the conversion argument is index/size-shaped:
// arithmetic, a len/cap call, or an identifier/selector named like a
// dimension (row, col, nnz, idx, len, count, size, n, dim, stride, offset).
var dimNameRE = regexp.MustCompile(`(?i)(row|col|nnz|idx|index|len|count|size|dim|stride|off|pos|width|height|^n$|^m$|^k$)`)

func indexLike(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.BinaryExpr:
		return true
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
			return true
		}
	case *ast.Ident:
		return dimNameRE.MatchString(x.Name)
	case *ast.SelectorExpr:
		return dimNameRE.MatchString(x.Sel.Name)
	}
	return false
}

// exprText renders a short expression for the message.
func exprText(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	case *ast.BinaryExpr:
		return exprText(x.X) + " " + x.Op.String() + " " + exprText(x.Y)
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok {
			return id.Name + "(...)"
		}
	}
	return "value"
}

// --- rule 2: float accumulators compared exactly ---

func checkAccumulatorCompare(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info

	// Pass 1: objects accumulated with += or -= (or x = x + ...) of float
	// type anywhere in the function.
	accs := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN:
		case token.ASSIGN:
			// x = x + y / x = x - y
			if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			be, ok := as.Rhs[0].(*ast.BinaryExpr)
			if !ok || (be.Op != token.ADD && be.Op != token.SUB) {
				return true
			}
			lid, ok := as.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			xid, ok := ast.Unparen(be.X).(*ast.Ident)
			if !ok || xid.Name != lid.Name {
				return true
			}
		default:
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		obj := defOrUse(info, id)
		if obj == nil {
			return true
		}
		if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
			accs[obj] = true
		}
		return true
	})
	if len(accs) == 0 {
		return
	}

	// Pass 2: exact comparisons of an accumulator against a constant.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		var accID *ast.Ident
		var other ast.Expr
		if id, ok := ast.Unparen(be.X).(*ast.Ident); ok && accs[defOrUse(info, id)] {
			accID, other = id, be.Y
		} else if id, ok := ast.Unparen(be.Y).(*ast.Ident); ok && accs[defOrUse(info, id)] {
			accID, other = id, be.X
		}
		if accID == nil {
			return true
		}
		tv, ok := info.Types[ast.Unparen(other)]
		if !ok || tv.Value == nil || tv.Value.Kind() == constant.Unknown {
			return true
		}
		pass.Reportf(be.Pos(), "float accumulator %q compared with %s against an exact constant; accumulated rounding error makes this unreliable — compare against a tolerance",
			accID.Name, be.Op)
		return true
	})
}

// --- rule 3: training entry points must screen non-finite inputs ---

// checkTrainingGuard flags exported Fit*/Train* functions that take float
// slice data and neither call math.IsNaN/IsInf themselves nor via a
// same-package callee one level deep (e.g. a Validate method).
func checkTrainingGuard(pass *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	if !strings.HasPrefix(name, "Fit") && !strings.HasPrefix(name, "Train") {
		return
	}
	if !ast.IsExported(name) {
		return
	}
	if !takesFloatData(pass.Pkg.Info, fd) {
		return
	}
	if callsFiniteCheck(pass, fd, 0) {
		return
	}
	pass.Reportf(fd.Pos(), "%s trains on float data but never screens for NaN/Inf: one non-finite feature silently poisons the model; validate inputs with math.IsNaN/math.IsInf",
		name)
}

// takesFloatData reports whether any parameter type contains a float slice
// ([]float64, [][]float32, or a named struct with such a field).
func takesFloatData(info *types.Info, fd *ast.FuncDecl) bool {
	for _, field := range fd.Type.Params.List {
		t := info.TypeOf(field.Type)
		if t != nil && containsFloatSlice(t, 0) {
			return true
		}
	}
	return false
}

func containsFloatSlice(t types.Type, depth int) bool {
	if depth > 3 {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		if b, ok := u.Elem().Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
			return true
		}
		return containsFloatSlice(u.Elem(), depth+1)
	case *types.Pointer:
		return containsFloatSlice(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsFloatSlice(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	}
	return false
}

// callsFiniteCheck reports whether the function calls math.IsNaN/math.IsInf,
// directly or through one level of same-package callees.
func callsFiniteCheck(pass *Pass, fd *ast.FuncDecl, depth int) bool {
	info := pass.Pkg.Info
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := resolvedFunc(info, call)
		if fn == nil {
			return true
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "math" && (fn.Name() == "IsNaN" || fn.Name() == "IsInf") {
			found = true
			return false
		}
		if depth >= 1 {
			return true
		}
		// Same-package callee: recurse one level (covers d.Validate()).
		if fn.Pkg() == nil || fn.Pkg().Path() != pass.Pkg.Types.Path() {
			return true
		}
		if decl := declOf(pass.Pkg, fn); decl != nil && decl.Body != nil {
			if callsFiniteCheck(pass, decl, depth+1) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// declOf finds the *ast.FuncDecl for a same-package function object.
func declOf(pkg *Package, fn *types.Func) *ast.FuncDecl {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if pkg.Info.Defs[fd.Name] == fn {
				return fd
			}
		}
	}
	return nil
}

// defOrUse returns the object an identifier defines or refers to.
func defOrUse(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}
