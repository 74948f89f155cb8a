package cfg

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// The fixture functions below exercise every structural shape the builder
// handles. Each test case asserts the block count, the number of back edges,
// the number of natural loops, and the loop depth at every sink(...) call in
// source order.
const fixtureSrc = `package fix

func sink(x int) {}

func nested(a [][]int) int {
	s := 0
	for i := 0; i < len(a); i++ {
		for j := 0; j < len(a[i]); j++ {
			sink(i + j)
			s += a[i][j]
		}
	}
	return s
}

func ifelse(x int) int {
	y := 0
	if x > 0 {
		sink(1)
		y = 1
	} else {
		sink(2)
		y = 2
	}
	sink(y)
	return y
}

func contbreak(a []int) int {
	s := 0
	for i := 0; i < len(a); i++ {
		if a[i] < 0 {
			continue
		}
		if a[i] > 100 {
			break
		}
		sink(s)
		s += a[i]
	}
	return s
}

func sel(c, d chan int) int {
	select {
	case v := <-c:
		sink(v)
		return v
	case <-d:
		return 0
	}
}

func labeled(a [][]int) int {
	s := 0
outer:
	for i := range a {
		for j := range a[i] {
			if a[i][j] == 0 {
				continue outer
			}
			sink(j)
			s += a[i][j]
		}
	}
	return s
}

func guarded(p []int, n int) {
	if n > len(p) {
		panic("short")
	}
	for i := 0; i < n; i++ {
		sink(p[i])
	}
}

func deferloop(a []int) int {
	s := 0
	for i := range a {
		defer sink(i)
		s += a[i]
	}
	return s
}

func labeledbreak(a [][]int) int {
	s := 0
outer2:
	for i := range a {
		for j := range a[i] {
			if a[i][j] < 0 {
				break outer2
			}
			sink(j)
			s += a[i][j]
		}
	}
	return s
}

func gotoloop(n int) int {
	s := 0
	i := 0
again:
	if i < n {
		sink(i)
		s += i
		i++
		goto again
	}
	return s
}

func gotofwd(x int) int {
	if x < 0 {
		goto done
	}
	sink(x)
done:
	return x
}

func selloop(c, d chan int) int {
	s := 0
	for i := 0; i < 4; i++ {
		select {
		case v := <-c:
			sink(v)
			s += v
		case <-d:
			return s
		}
	}
	return s
}

func fallthru(x int) int {
	y := 0
	switch x {
	case 0:
		y = 1
		fallthrough
	case 1:
		y = 2
	default:
		y = 3
	}
	return y
}
`

func parseFixture(t *testing.T) (*token.FileSet, map[string]*ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", fixtureSrc, 0)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	fns := make(map[string]*ast.FuncDecl)
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			fns[fd.Name.Name] = fd
		}
	}
	return fset, fns
}

// sinkDepths returns the loop depth at each sink(...) call in source order.
func sinkDepths(g *Graph, fn *ast.FuncDecl) []int {
	var out []int
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "sink" {
			out = append(out, g.LoopDepthAt(call.Pos()))
		}
		return true
	})
	return out
}

func dumpGraph(g *Graph) string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "  b%d %-14s depth=%d succs=", b.Index, b.Kind, g.LoopDepth(b))
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, "b%d ", s.Index)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func TestGraphShapes(t *testing.T) {
	fset, fns := parseFixture(t)
	_ = fset
	cases := []struct {
		fn         string
		blocks     int
		backEdges  int
		loops      int
		sinkDepths []int
	}{
		{fn: "nested", blocks: 11, backEdges: 2, loops: 2, sinkDepths: []int{2}},
		{fn: "ifelse", blocks: 6, backEdges: 0, loops: 0, sinkDepths: []int{0, 0, 0}},
		{fn: "contbreak", blocks: 13, backEdges: 1, loops: 1, sinkDepths: []int{1}},
		{fn: "sel", blocks: 7, backEdges: 0, loops: 0, sinkDepths: []int{0}},
		{fn: "labeled", blocks: 13, backEdges: 3, loops: 2, sinkDepths: []int{2}},
		{fn: "guarded", blocks: 9, backEdges: 1, loops: 1, sinkDepths: []int{1}},
		{fn: "fallthru", blocks: 8, backEdges: 0, loops: 0, sinkDepths: nil},
	}
	for _, tc := range cases {
		t.Run(tc.fn, func(t *testing.T) {
			fd := fns[tc.fn]
			if fd == nil {
				t.Fatalf("fixture %s missing", tc.fn)
			}
			g := FuncGraph(fd)
			if g == nil {
				t.Fatalf("FuncGraph returned nil")
			}
			if got := len(g.Blocks); got != tc.blocks {
				t.Errorf("blocks = %d, want %d\n%s", got, tc.blocks, dumpGraph(g))
			}
			if got := len(g.BackEdges()); got != tc.backEdges {
				t.Errorf("back edges = %d, want %d\n%s", got, tc.backEdges, dumpGraph(g))
			}
			if got := len(g.Loops()); got != tc.loops {
				t.Errorf("loops = %d, want %d\n%s", got, tc.loops, dumpGraph(g))
			}
			if got := sinkDepths(g, fd); !equalInts(got, tc.sinkDepths) {
				t.Errorf("sink depths = %v, want %v\n%s", got, tc.sinkDepths, dumpGraph(g))
			}
		})
	}
}

// TestGraphEdgeCases pins the control-flow shapes that are easiest to get
// wrong: defer inside a loop, labeled break, backward and forward goto, and
// select inside a loop. Each case asserts the back-edge and natural-loop
// counts, the loop depth at every sink call, and the dominator invariants
// the loop-depth and guard-dominance queries assume: every loop head
// dominates every block of its loop, and the entry dominates every block
// that carries statements.
func TestGraphEdgeCases(t *testing.T) {
	_, fns := parseFixture(t)
	cases := []struct {
		fn         string
		backEdges  int
		loops      int
		sinkDepths []int
	}{
		{fn: "deferloop", backEdges: 1, loops: 1, sinkDepths: []int{1}},
		{fn: "labeledbreak", backEdges: 2, loops: 2, sinkDepths: []int{2}},
		{fn: "gotoloop", backEdges: 1, loops: 1, sinkDepths: []int{1}},
		{fn: "gotofwd", backEdges: 0, loops: 0, sinkDepths: []int{0}},
		{fn: "selloop", backEdges: 1, loops: 1, sinkDepths: []int{1}},
	}
	for _, tc := range cases {
		t.Run(tc.fn, func(t *testing.T) {
			fd := fns[tc.fn]
			if fd == nil {
				t.Fatalf("fixture %s missing", tc.fn)
			}
			g := FuncGraph(fd)
			if got := len(g.BackEdges()); got != tc.backEdges {
				t.Errorf("back edges = %d, want %d\n%s", got, tc.backEdges, dumpGraph(g))
			}
			if got := len(g.Loops()); got != tc.loops {
				t.Errorf("loops = %d, want %d\n%s", got, tc.loops, dumpGraph(g))
			}
			if got := sinkDepths(g, fd); !equalInts(got, tc.sinkDepths) {
				t.Errorf("sink depths = %v, want %v\n%s", got, tc.sinkDepths, dumpGraph(g))
			}
			for _, l := range g.Loops() {
				for _, b := range l.Blocks {
					if !g.Dominates(l.Head, b) {
						t.Errorf("loop head b%d must dominate loop block b%d\n%s", l.Head.Index, b.Index, dumpGraph(g))
					}
				}
			}
			for _, b := range g.Blocks {
				if len(b.Nodes) == 0 {
					continue
				}
				if !g.Dominates(g.Entry, b) {
					t.Errorf("entry must dominate statement block b%d (%s)\n%s", b.Index, b.Kind, dumpGraph(g))
				}
			}
		})
	}

	// Shape specifics. The backward goto forms a natural loop whose head is
	// the label block; the labeled break's then-block escapes both natural
	// loops; the select's case blocks all sit inside selloop's loop.
	g := FuncGraph(fns["gotoloop"])
	if n := len(g.Loops()); n == 1 {
		if head := g.Loops()[0].Head; head.Kind != "label.again" {
			t.Errorf("gotoloop natural-loop head = %s, want label.again\n%s", head.Kind, dumpGraph(g))
		}
	}
	g = FuncGraph(fns["labeledbreak"])
	for _, l := range g.Loops() {
		for _, b := range l.Blocks {
			if b.Kind == "if.then" {
				t.Errorf("labeled-break block b%d must escape the natural loop\n%s", b.Index, dumpGraph(g))
			}
		}
	}
	g = FuncGraph(fns["selloop"])
	if n := len(g.Loops()); n == 1 {
		loop := g.Loops()[0]
		cases := 0
		for _, b := range loop.Blocks {
			if strings.HasPrefix(b.Kind, "select.case") {
				cases++
			}
		}
		// Only the receive-and-accumulate case loops back; the returning case
		// exits and is not part of the natural loop.
		if cases != 1 {
			t.Errorf("want 1 select.case block inside selloop's loop, got %d\n%s", cases, dumpGraph(g))
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEntryExitInvariants(t *testing.T) {
	_, fns := parseFixture(t)
	for name, fd := range fns {
		g := FuncGraph(fd)
		if g.Blocks[0] != g.Entry {
			t.Errorf("%s: entry is not first block", name)
		}
		if g.Blocks[len(g.Blocks)-1] != g.Exit {
			t.Errorf("%s: exit is not last block", name)
		}
		for i, b := range g.Blocks {
			if b.Index != i {
				t.Errorf("%s: block %d has Index %d", name, i, b.Index)
			}
		}
		if len(g.Exit.Succs) != 0 {
			t.Errorf("%s: exit has successors", name)
		}
	}
}

func TestDominates(t *testing.T) {
	_, fns := parseFixture(t)
	g := FuncGraph(fns["nested"])
	// Entry dominates everything reachable; exit dominates only itself.
	for _, b := range g.Blocks {
		if b.Kind == "unreachable" {
			continue
		}
		if !g.Dominates(g.Entry, b) {
			t.Errorf("entry should dominate b%d (%s)", b.Index, b.Kind)
		}
	}
	if g.Dominates(g.Exit, g.Entry) {
		t.Error("exit must not dominate entry")
	}
	// The panic guard in `guarded` dominates the loop body: the entry block
	// (holding the if cond) dominates every loop block.
	gg := FuncGraph(fns["guarded"])
	for _, l := range gg.Loops() {
		for _, b := range l.Blocks {
			if !gg.Dominates(gg.Entry, b) {
				t.Errorf("guard block should dominate loop block b%d", b.Index)
			}
		}
	}
}

func TestBreakBlockOutsideNaturalLoop(t *testing.T) {
	// A block that unconditionally breaks cannot reach the back edge, so it
	// is not part of the natural loop; analyzers rely on this to ignore
	// early-exit paths.
	_, fns := parseFixture(t)
	g := FuncGraph(fns["contbreak"])
	if len(g.Loops()) != 1 {
		t.Fatalf("want 1 loop, got %d", len(g.Loops()))
	}
	loop := g.Loops()[0]
	inLoop := 0
	for _, b := range g.Blocks {
		if b.Kind == "if.then" && containsBlock(loop.Blocks, b) {
			inLoop++
		}
	}
	// Only the continue-then block (which reaches the back edge) is in the
	// loop; the break-then block is not.
	if inLoop != 1 {
		t.Errorf("want exactly 1 if.then block inside the loop, got %d\n%s", inLoop, dumpGraph(g))
	}
}

const dataflowSrc = `package fix

func fill([]int) {}

func escapes(out *[]int, n int) []int {
	kept := make([]int, 0, n)
	local := make([]int, n)
	captured := make([]int, n)
	f := func() int { return len(captured) }
	_ = f()
	*out = kept
	fill(local)
	return kept
}

func derived(rowPtr []int, n int) int {
	start := rowPtr[0]
	end := start + 1
	clean := n * 2
	return end + clean
}
`

func typecheckSrc(t *testing.T, src string) (*token.FileSet, *ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "df.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
		Types: make(map[ast.Expr]types.TypeAndValue),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("fix", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return fset, f, info
}

func funcDecl(f *ast.File, name string) *ast.FuncDecl {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd
		}
	}
	return nil
}

func TestRetained(t *testing.T) {
	_, f, info := typecheckSrc(t, dataflowSrc)
	fd := funcDecl(f, "escapes")
	leaves := Retained(fd, info)
	byName := func(name string) types.Object {
		var found types.Object
		ast.Inspect(fd, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name {
				if obj := info.Defs[id]; obj != nil {
					found = obj
				}
			}
			return true
		})
		return found
	}
	if !leaves[byName("kept")] {
		t.Error("kept is returned and stored through *out: should be retained")
	}
	if !leaves[byName("captured")] {
		t.Error("captured is referenced by a closure: should be retained")
	}
	if leaves[byName("local")] {
		t.Error("local is only passed to a callee: a scratch buffer is not retained")
	}
}

func TestDerived(t *testing.T) {
	_, f, info := typecheckSrc(t, dataflowSrc)
	fd := funcDecl(f, "derived")
	seed := func(e ast.Expr) bool {
		ix, ok := e.(*ast.IndexExpr)
		if !ok {
			return false
		}
		id, ok := ix.X.(*ast.Ident)
		return ok && id.Name == "rowPtr"
	}
	der := Derived(fd, info, seed)
	names := make(map[string]bool)
	for obj := range der {
		names[obj.Name()] = true
	}
	if !names["start"] {
		t.Error("start is loaded from rowPtr: should be derived")
	}
	if !names["end"] {
		t.Error("end is computed from start: should be derived (transitive)")
	}
	if names["clean"] {
		t.Error("clean has no rowPtr provenance")
	}
}
