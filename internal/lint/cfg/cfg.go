// Package cfg builds per-function control-flow graphs from Go syntax trees
// using only the standard library, and lists a body's goroutine launches
// (goroutine.go). It is the substrate the dataflow analyzers in
// internal/lint stand on — the same role golang.org/x/tools/go/cfg plays
// for the real analysis framework, cut down to what the sigil passes
// consume.
//
// The graph is statement-granular: every statement and every control
// expression (an if condition, a switch tag, a range operand) is a node of
// exactly one basic block, and edges follow the language's control flow —
// including goto, labeled break/continue, switch fallthrough, and select.
// Function literals are opaque values: their bodies belong to their own
// graphs, never to the enclosing function's.
package cfg

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal sequence of nodes that execute
// strictly in order, with control transferring only at the end.
type Block struct {
	Index int
	// Nodes are the statements and control expressions of the block in
	// execution order. Control expressions (conditions, tags, range
	// operands) appear as bare ast.Expr entries.
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
	// Kind is a short human-readable tag ("entry", "if.then", "for.head",
	// ...) used by tests and debug output; analyses should not dispatch
	// on it.
	Kind string
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Blocks holds every block; Blocks[0] is the entry block.
	Blocks []*Block
	// Exit is the synthetic exit block: every return statement and every
	// path that falls off the end of the body leads here.
	Exit *Block

	byNode map[ast.Node]*Block
}

// New builds the graph for one function body. A nil body (a declaration
// without a definition) yields a graph with just entry and exit.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}}
	entry := b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.cur = entry
	if body != nil {
		b.stmtList(body.List)
	}
	// Falling off the end of the body is an implicit return.
	b.jump(b.g.Exit)
	b.g.index()
	return b.g
}

// BlockOf returns the block containing the given node, descending through
// expressions: a node anywhere inside a registered statement or control
// expression maps to that statement's block. Nodes inside a nested
// function literal (other than the literal itself) belong to the literal's
// own graph and return nil.
func (g *Graph) BlockOf(n ast.Node) *Block {
	return g.byNode[n]
}

// registerSubtree maps every node under root (stopping at function
// literals) to b, without overriding earlier registrations.
func registerSubtree(g *Graph, b *Block, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, seen := g.byNode[n]; !seen {
			g.byNode[n] = b
		}
		_, isLit := n.(*ast.FuncLit)
		return !isLit
	})
}

// Reachable reports the set of blocks reachable from `from` by following
// successor edges (including `from` itself).
func (g *Graph) Reachable(from *Block) map[*Block]bool {
	seen := map[*Block]bool{from: true}
	work := []*Block{from}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return seen
}

// Reaches reports whether `to` is reachable from `from`.
func (g *Graph) Reaches(from, to *Block) bool {
	return g.Reachable(from)[to]
}

// index registers every statement and control expression — and their
// descendants, except the interiors of nested function literals — so
// BlockOf can answer for any node of the body.
func (g *Graph) index() {
	g.byNode = make(map[ast.Node]*Block)
	for _, b := range g.Blocks {
		for _, root := range b.Nodes {
			b, root := b, root
			ast.Inspect(root, func(n ast.Node) bool {
				if n == nil {
					return false
				}
				if _, seen := g.byNode[n]; !seen {
					g.byNode[n] = b
				}
				switch n := n.(type) {
				case *ast.FuncLit:
					// The literal itself is a value in this block; its
					// body is another function.
					return false
				case *ast.RangeStmt:
					// A range statement registered as a head node owns only
					// its key/value/operand; the body statements belong to
					// the body blocks and register themselves there.
					if n == root {
						if n.Key != nil {
							registerSubtree(g, b, n.Key)
						}
						if n.Value != nil {
							registerSubtree(g, b, n.Value)
						}
						registerSubtree(g, b, n.X)
						return false
					}
				}
				return true
			})
		}
	}
}

// builder holds the in-progress graph and the control context stacks.
type builder struct {
	g   *Graph
	cur *Block // nil after a terminating statement (return, goto, ...)

	breaks    []breakTarget
	continues []loopTarget
	labels    map[string]*labelInfo

	// curLabel is the label wrapped around the next loop/switch/select
	// statement, set by the LabeledStmt case and consumed by takeLabel.
	curLabel string
}

type breakTarget struct {
	label string // "" for the innermost unlabeled target
	block *Block
}

type loopTarget struct {
	label string
	block *Block
}

type labelInfo struct {
	target  *Block   // the labeled statement's block (goto destination)
	pending []*Block // blocks with goto edges awaiting the label definition
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// add appends a node to the current block, starting a fresh (unreachable)
// block if control cannot reach here — dead code still gets blocks so
// analyses can see it, it just has no predecessors.
func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// jump ends the current block with an unconditional edge.
func (b *builder) jump(to *Block) {
	if b.cur != nil {
		edge(b.cur, to)
	}
	b.cur = nil
}

// start begins a new block as the current one.
func (b *builder) start(blk *Block) { b.cur = blk }

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		then := b.newBlock("if.then")
		after := b.newBlock("if.done")
		edge(cond, then)
		b.start(then)
		b.stmt(s.Body)
		b.jump(after)
		if s.Else != nil {
			els := b.newBlock("if.else")
			edge(cond, els)
			b.start(els)
			b.stmt(s.Else)
			b.jump(after)
		} else {
			edge(cond, after)
		}
		b.start(after)

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock("for.head")
		body := b.newBlock("for.body")
		after := b.newBlock("for.done")
		post := head
		if s.Post != nil {
			post = b.newBlock("for.post")
		}
		b.jump(head)
		b.start(head)
		if s.Cond != nil {
			b.add(s.Cond)
			edge(b.cur, body)
			edge(b.cur, after)
			b.cur = nil
		} else {
			b.jump(body) // for {} — only exit is break/return
		}
		b.pushLoop(b.takeLabel(), after, post)
		b.start(body)
		b.stmt(s.Body)
		b.jump(post)
		b.popLoop()
		if s.Post != nil {
			b.start(post)
			b.add(s.Post)
			b.jump(head)
		}
		b.start(after)

	case *ast.RangeStmt:
		head := b.newBlock("range.head")
		body := b.newBlock("range.body")
		after := b.newBlock("range.done")
		b.jump(head)
		b.start(head)
		// The whole range statement is the head node: it evaluates the
		// operand and defines the iteration variables each trip.
		b.add(s)
		edge(b.cur, body)
		edge(b.cur, after)
		b.cur = nil
		b.pushLoop(b.takeLabel(), after, head)
		b.start(body)
		b.stmt(s.Body)
		b.jump(head)
		b.popLoop()
		b.start(after)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(s.Body.List, b.takeLabel(), func(cc *ast.CaseClause) ([]ast.Stmt, bool) {
			return cc.Body, cc.List == nil
		})

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(s.Body.List, b.takeLabel(), func(cc *ast.CaseClause) ([]ast.Stmt, bool) {
			return cc.Body, cc.List == nil
		})

	case *ast.SelectStmt:
		sel := b.cur
		if sel == nil {
			sel = b.newBlock("unreachable")
			b.cur = sel
		}
		after := b.newBlock("select.done")
		b.pushBreak(b.takeLabel(), after)
		// A default clause adds no edge: a select with no ready case
		// blocks, so every clause is a successor either way.
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			blk := b.newBlock("select.case")
			edge(sel, blk)
			b.start(blk)
			if cc.Comm != nil {
				b.add(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.jump(after)
		}
		b.popBreak()
		b.cur = nil
		b.start(after)

	case *ast.LabeledStmt:
		target := b.newBlock("label." + s.Label.Name)
		b.jump(target)
		b.start(target)
		li := b.label(s.Label.Name)
		li.target = target
		for _, p := range li.pending {
			edge(p, target)
		}
		li.pending = nil
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt,
			*ast.TypeSwitchStmt, *ast.SelectStmt:
			b.curLabel = s.Label.Name
		}
		b.stmt(s.Stmt)
		b.curLabel = ""

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.GOTO:
			li := b.label(s.Label.Name)
			if li.target != nil {
				b.jump(li.target)
			} else {
				li.pending = append(li.pending, b.cur)
				b.cur = nil
			}
		case token.BREAK:
			b.jump(b.breakTarget(labelName(s.Label)))
		case token.CONTINUE:
			b.jump(b.continueTarget(labelName(s.Label)))
		case token.FALLTHROUGH:
			// Leave the block open: caseClauses wires its end to the next
			// clause's body.
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)

	case *ast.EmptyStmt:
		// no node

	default:
		// Expression statements, assignments, declarations, go, defer,
		// send, inc/dec: straight-line nodes.
		b.add(s)
	}
}

// caseClauses wires switch/type-switch clauses: the dispatching block gets
// an edge to every clause, plus one to the after-block when no default
// clause exists. A fallthrough at the end of a clause body transfers to
// the next clause's body.
func (b *builder) caseClauses(clauses []ast.Stmt, label string, split func(*ast.CaseClause) ([]ast.Stmt, bool)) {
	dispatch := b.cur
	if dispatch == nil {
		dispatch = b.newBlock("unreachable")
	}
	after := b.newBlock("switch.done")
	b.pushBreak(label, after)
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i := range clauses {
		bodies[i] = b.newBlock("case")
	}
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		body, isDefault := split(cc)
		if isDefault {
			hasDefault = true
		}
		edge(dispatch, bodies[i])
		b.start(bodies[i])
		for _, e := range cc.List {
			b.add(e)
		}
		fallsThrough := false
		if n := len(body); n > 0 {
			if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
			}
		}
		b.stmtList(body)
		if fallsThrough && i+1 < len(clauses) {
			b.jump(bodies[i+1])
		} else {
			b.jump(after)
		}
	}
	if !hasDefault {
		edge(dispatch, after)
	}
	b.popBreak()
	b.cur = nil
	b.start(after)
}

func (b *builder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, breakTarget{label: label, block: brk})
	b.continues = append(b.continues, loopTarget{label: label, block: cont})
}

func (b *builder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

func (b *builder) pushBreak(label string, blk *Block) {
	b.breaks = append(b.breaks, breakTarget{label: label, block: blk})
}

func (b *builder) popBreak() {
	b.breaks = b.breaks[:len(b.breaks)-1]
}

func (b *builder) breakTarget(label string) *Block {
	for i := len(b.breaks) - 1; i >= 0; i-- {
		if label == "" || b.breaks[i].label == label {
			return b.breaks[i].block
		}
	}
	return b.g.Exit // malformed code: degrade to exit
}

func (b *builder) continueTarget(label string) *Block {
	for i := len(b.continues) - 1; i >= 0; i-- {
		if label == "" || b.continues[i].label == label {
			return b.continues[i].block
		}
	}
	return b.g.Exit
}

func (b *builder) label(name string) *labelInfo {
	if b.labels == nil {
		b.labels = make(map[string]*labelInfo)
	}
	li, ok := b.labels[name]
	if !ok {
		li = &labelInfo{}
		b.labels[name] = li
	}
	return li
}

// takeLabel consumes the label registered by an enclosing LabeledStmt, so
// `outer: for { break outer }` binds the break/continue targets to the
// labeled loop rather than an inner one.
func (b *builder) takeLabel() string {
	l := b.curLabel
	b.curLabel = ""
	return l
}

func labelName(id *ast.Ident) string {
	if id == nil {
		return ""
	}
	return id.Name
}
