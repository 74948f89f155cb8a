// Package cfg builds per-function control-flow graphs for the wise-lint
// analyzers (LINTING.md, "The v2 engine"). A Graph is a set of basic blocks
// over the statements and control expressions of one function body; on top
// of it the package computes dominators, back edges, natural loops with
// nesting depth; dataflow.go adds the derived-value and retained-value
// helpers the analyzers share. The graphs are intraprocedural and syntactic: function
// literals are treated as opaque values of the enclosing function (their
// bodies get graphs of their own when an analyzer asks for one), and panics
// and calls that never return (os.Exit, runtime.Goexit, log.Fatal*) are
// modelled as jumps to the exit block so guard clauses dominate what they
// protect.
package cfg

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal straight-line sequence of statements
// and control expressions with edges only at the end.
type Block struct {
	Index int
	Kind  string     // construction site, for tests and debugging ("for.head", "if.then", ...)
	Nodes []ast.Node // statements and control expressions in execution order
	Succs []*Block
	Preds []*Block
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block // all blocks, Entry first, Exit last, in creation order

	idom  []int // immediate dominator per block index; -1 = unreachable/entry
	rpo   []int // reverse-postorder position per block index; -1 = unreachable
	loops []*Loop
	depth []int // loop-nesting depth per block index
}

// Loop is one natural loop discovered from a back edge, merged per header.
type Loop struct {
	Head   *Block
	Blocks []*Block // all blocks in the loop, including Head
	Depth  int      // 1 for an outermost loop, 2 for one nested inside it, ...
}

// FuncGraph builds the graph of a function declaration or function literal.
// It accepts *ast.FuncDecl and *ast.FuncLit; any other node (or a FuncDecl
// without a body) yields nil.
func FuncGraph(fn ast.Node) *Graph {
	switch f := fn.(type) {
	case *ast.FuncDecl:
		if f.Body == nil {
			return nil
		}
		return New(f.Body)
	case *ast.FuncLit:
		return New(f.Body)
	}
	return nil
}

// New builds the control-flow graph of one function body.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.cur = b.g.Entry
	b.stmtList(body.List)
	b.edge(b.cur, b.g.Exit)
	for _, pg := range b.gotos {
		if lb, ok := b.labels[pg.label]; ok {
			b.edge(pg.from, lb)
		} else {
			b.edge(pg.from, b.g.Exit) // unresolved goto: conservatively leave the function
		}
	}
	// Creation order puts Exit second; move it last for readable dumps.
	g := b.g
	if len(g.Blocks) > 2 {
		blocks := make([]*Block, 0, len(g.Blocks))
		blocks = append(blocks, g.Blocks[0])
		blocks = append(blocks, g.Blocks[2:]...)
		blocks = append(blocks, g.Blocks[1])
		g.Blocks = blocks
		for i, blk := range g.Blocks {
			blk.Index = i
		}
	}
	g.analyze()
	return g
}

// --- construction ---

type frame struct {
	label  string
	isLoop bool
	brk    *Block
	cont   *Block // nil for switch/select frames
}

type pendingGoto struct {
	from  *Block
	label string
}

type builder struct {
	g            *Graph
	cur          *Block
	frames       []*frame
	labels       map[string]*Block
	gotos        []pendingGoto
	pendingLabel string
	fallthroughT *Block
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func (b *builder) add(n ast.Node) { b.cur.Nodes = append(b.cur.Nodes, n) }

// unreachable starts a fresh block with no predecessors, for statements
// following a terminator.
func (b *builder) unreachable() { b.cur = b.newBlock("unreachable") }

func (b *builder) pushFrame(f *frame) {
	f.label = b.pendingLabel
	b.pendingLabel = ""
	b.frames = append(b.frames, f)
}

func (b *builder) popFrame() { b.frames = b.frames[:len(b.frames)-1] }

func (b *builder) breakTarget(label string) *Block {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if label == "" || f.label == label {
			return f.brk
		}
	}
	return b.g.Exit
}

func (b *builder) continueTarget(label string) *Block {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if f.isLoop && (label == "" || f.label == label) {
			return f.cont
		}
	}
	return b.g.Exit
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.EmptyStmt:
	case *ast.LabeledStmt:
		lb := b.newBlock("label." + s.Label.Name)
		b.edge(b.cur, lb)
		b.cur = lb
		if b.labels == nil {
			b.labels = make(map[string]*Block)
		}
		b.labels[s.Label.Name] = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.unreachable()
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s.Body, "switch")
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(s.Body, "typeswitch")
	case *ast.SelectStmt:
		b.selectStmt(s)
	default:
		// ExprStmt, AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt,
		// DeferStmt: straight-line statements.
		b.add(s)
		if es, ok := s.(*ast.ExprStmt); ok && isTerminatingCall(es.X) {
			b.edge(b.cur, b.g.Exit)
			b.unreachable()
		}
	}
}

func (b *builder) branch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		b.edge(b.cur, b.breakTarget(label))
	case token.CONTINUE:
		b.edge(b.cur, b.continueTarget(label))
	case token.GOTO:
		if lb, ok := b.labels[label]; ok {
			b.edge(b.cur, lb)
		} else {
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: label})
		}
	case token.FALLTHROUGH:
		if b.fallthroughT != nil {
			b.edge(b.cur, b.fallthroughT)
		}
	}
	b.unreachable()
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Cond)
	cond := b.cur
	then := b.newBlock("if.then")
	b.edge(cond, then)
	b.cur = then
	b.stmtList(s.Body.List)
	thenEnd := b.cur
	after := b.newBlock("if.after")
	b.edge(thenEnd, after)
	if s.Else != nil {
		els := b.newBlock("if.else")
		b.edge(cond, els)
		b.cur = els
		b.stmt(s.Else)
		b.edge(b.cur, after)
	} else {
		b.edge(cond, after)
	}
	b.cur = after
}

func (b *builder) forStmt(s *ast.ForStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock("for.head")
	b.edge(b.cur, head)
	if s.Cond != nil {
		head.Nodes = append(head.Nodes, s.Cond)
	}
	body := b.newBlock("for.body")
	b.edge(head, body)
	after := b.newBlock("for.after")
	if s.Cond != nil {
		b.edge(head, after)
	}
	cont := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock("for.post")
		post.Nodes = append(post.Nodes, s.Post)
		b.edge(post, head)
		cont = post
	}
	b.pushFrame(&frame{isLoop: true, brk: after, cont: cont})
	b.cur = body
	b.stmtList(s.Body.List)
	b.edge(b.cur, cont)
	b.popFrame()
	b.cur = after
}

func (b *builder) rangeStmt(s *ast.RangeStmt) {
	head := b.newBlock("range.head")
	b.edge(b.cur, head)
	head.Nodes = append(head.Nodes, s) // carries X and the Key/Value binding
	body := b.newBlock("range.body")
	b.edge(head, body)
	after := b.newBlock("range.after")
	b.edge(head, after)
	b.pushFrame(&frame{isLoop: true, brk: after, cont: head})
	b.cur = body
	b.stmtList(s.Body.List)
	b.edge(b.cur, head)
	b.popFrame()
	b.cur = after
}

func (b *builder) switchBody(body *ast.BlockStmt, kind string) {
	head := b.cur
	after := b.newBlock(kind + ".after")
	b.pushFrame(&frame{brk: after})
	var clauses []*ast.CaseClause
	for _, s := range body.List {
		if cc, ok := s.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	caseBlocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		caseBlocks[i] = b.newBlock(kind + ".case")
		b.edge(head, caseBlocks[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, after)
	}
	savedFT := b.fallthroughT
	for i, cc := range clauses {
		b.cur = caseBlocks[i]
		for _, e := range cc.List {
			b.cur.Nodes = append(b.cur.Nodes, e)
		}
		if i+1 < len(clauses) {
			b.fallthroughT = caseBlocks[i+1]
		} else {
			b.fallthroughT = nil
		}
		b.stmtList(cc.Body)
		b.edge(b.cur, after)
	}
	b.fallthroughT = savedFT
	b.popFrame()
	b.cur = after
}

func (b *builder) selectStmt(s *ast.SelectStmt) {
	head := b.cur
	after := b.newBlock("select.after")
	b.pushFrame(&frame{brk: after})
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock("select.case")
		b.edge(head, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.edge(b.cur, after)
	}
	b.popFrame()
	b.cur = after
}

// isTerminatingCall reports whether the expression statement is a call that
// never returns: panic, os.Exit, runtime.Goexit, log.Fatal*. Syntactic —
// the cfg package has no type information by design.
func isTerminatingCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch {
		case pkg.Name == "os" && fun.Sel.Name == "Exit":
			return true
		case pkg.Name == "runtime" && fun.Sel.Name == "Goexit":
			return true
		case pkg.Name == "log" && (fun.Sel.Name == "Fatal" || fun.Sel.Name == "Fatalf" || fun.Sel.Name == "Fatalln"):
			return true
		}
	}
	return false
}

// --- dominators, back edges, loops ---

// analyze computes reverse postorder, dominators, and natural loops.
func (g *Graph) analyze() {
	n := len(g.Blocks)
	g.rpo = make([]int, n)
	g.idom = make([]int, n)
	for i := range g.rpo {
		g.rpo[i] = -1
		g.idom[i] = -1
	}
	// Postorder DFS from entry.
	var order []*Block
	seen := make([]bool, n)
	var dfs func(*Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	dfs(g.Entry)
	// order is postorder; reverse-postorder position = len-1-i.
	for i, b := range order {
		g.rpo[b.Index] = len(order) - 1 - i
	}
	// Cooper/Harvey/Kennedy iterative dominators over reachable blocks.
	rpoBlocks := make([]*Block, len(order))
	for i, b := range order {
		rpoBlocks[len(order)-1-i] = b
	}
	g.idom[g.Entry.Index] = g.Entry.Index
	for changed := true; changed; {
		changed = false
		for _, b := range rpoBlocks {
			if b == g.Entry {
				continue
			}
			newIdom := -1
			for _, p := range b.Preds {
				if g.idom[p.Index] < 0 {
					continue // unreachable or not yet processed
				}
				if newIdom < 0 {
					newIdom = p.Index
				} else {
					newIdom = g.intersect(p.Index, newIdom)
				}
			}
			if newIdom >= 0 && g.idom[b.Index] != newIdom {
				g.idom[b.Index] = newIdom
				changed = true
			}
		}
	}
	g.findLoops()
}

func (g *Graph) intersect(a, b int) int {
	for a != b {
		for g.rpo[a] > g.rpo[b] {
			a = g.idom[a]
		}
		for g.rpo[b] > g.rpo[a] {
			b = g.idom[b]
		}
	}
	return a
}

// Dominates reports whether a dominates b (every path from entry to b passes
// through a). A block dominates itself. Unreachable blocks are dominated by
// nothing and dominate nothing.
func (g *Graph) Dominates(a, b *Block) bool {
	if g.idom[a.Index] < 0 || g.idom[b.Index] < 0 {
		return false
	}
	for {
		if a == b {
			return true
		}
		next := g.idom[b.Index]
		if next == b.Index {
			return false // reached entry
		}
		b = g.Blocks[next]
	}
}

// BackEdges returns every edge u->v where v dominates u — the loop-closing
// edges.
func (g *Graph) BackEdges() [][2]*Block {
	var out [][2]*Block
	for _, u := range g.Blocks {
		for _, v := range u.Succs {
			if g.idom[u.Index] >= 0 && g.Dominates(v, u) {
				out = append(out, [2]*Block{u, v})
			}
		}
	}
	return out
}

// findLoops builds natural loops from back edges, merging loops that share a
// header, and computes per-block nesting depth.
func (g *Graph) findLoops() {
	byHead := make(map[*Block]map[*Block]bool)
	for _, e := range g.BackEdges() {
		tail, head := e[0], e[1]
		set := byHead[head]
		if set == nil {
			set = map[*Block]bool{head: true}
			byHead[head] = set
		}
		// All blocks that reach tail without passing through head.
		stack := []*Block{tail}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if set[b] {
				continue
			}
			set[b] = true
			for _, p := range b.Preds {
				if g.idom[p.Index] >= 0 {
					stack = append(stack, p)
				}
			}
		}
	}
	g.depth = make([]int, len(g.Blocks))
	g.loops = nil
	for head, set := range byHead {
		blocks := make([]*Block, 0, len(set))
		for b := range set {
			blocks = append(blocks, b)
		}
		sortBlocks(blocks)
		g.loops = append(g.loops, &Loop{Head: head, Blocks: blocks})
	}
	sortLoops(g.loops)
	for _, b := range g.Blocks {
		for _, l := range g.loops {
			if containsBlock(l.Blocks, b) {
				g.depth[b.Index]++
			}
		}
	}
	for _, l := range g.loops {
		l.Depth = g.depth[l.Head.Index]
	}
}

// Loops returns the natural loops of the graph, outermost headers first.
func (g *Graph) Loops() []*Loop { return g.loops }

// LoopDepth returns the loop-nesting depth of a block: 0 outside any loop.
func (g *Graph) LoopDepth(b *Block) int { return g.depth[b.Index] }

func sortBlocks(bs []*Block) {
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && bs[j].Index < bs[j-1].Index; j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
}

func sortLoops(ls []*Loop) {
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j].Head.Index < ls[j-1].Head.Index; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
}

func containsBlock(bs []*Block, b *Block) bool {
	for _, x := range bs {
		if x == b {
			return true
		}
	}
	return false
}

// --- position mapping ---

// BlockOf returns the block holding the innermost recorded node whose source
// range contains pos, or nil when pos is outside every recorded node (e.g. a
// position inside a nested function literal maps to the statement that
// contains the literal).
func (g *Graph) BlockOf(pos token.Pos) *Block {
	var best ast.Node
	var bestBlock *Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if n.Pos() <= pos && pos < n.End() {
				if best == nil || (n.End()-n.Pos()) < (best.End()-best.Pos()) {
					best = n
					bestBlock = b
				}
			}
		}
	}
	return bestBlock
}

// LoopDepthAt returns the loop-nesting depth at a source position, 0 when
// the position is outside every loop or not recorded in the graph.
func (g *Graph) LoopDepthAt(pos token.Pos) int {
	b := g.BlockOf(pos)
	if b == nil {
		return 0
	}
	return g.LoopDepth(b)
}
