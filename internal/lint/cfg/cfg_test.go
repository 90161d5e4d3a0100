package cfg

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// parseFunc type-checks src (a complete file) and returns the graph and
// declaration of the named function.
func parseFunc(t *testing.T, src, name string) (*Graph, *ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "x.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("x", fset, []*ast.File{file}, nil); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return New(fd.Body), fd
		}
	}
	t.Fatalf("function %q not found", name)
	return nil, nil
}

// stmtBlock returns the block owning the first occurrence (by position) of
// the marker — an identifier name or a literal value — using the graph's
// node index, so a marker inside a loop body resolves to the body block,
// not the loop head.
func stmtBlock(t *testing.T, g *Graph, marker string) *Block {
	t.Helper()
	var bestPos token.Pos = -1
	var best *Block
	for n, b := range g.byNode {
		match := false
		switch n := n.(type) {
		case *ast.Ident:
			match = n.Name == marker
		case *ast.BasicLit:
			match = n.Value == marker
		}
		if match && (bestPos < 0 || n.Pos() < bestPos) {
			bestPos, best = n.Pos(), b
		}
	}
	if best == nil {
		t.Fatalf("no block contains %q", marker)
	}
	return best
}

func TestIfShapes(t *testing.T) {
	g, _ := parseFunc(t, `package x
func f(c bool) int {
	before := 1
	if c {
		then := 2
		_ = then
	} else {
		els := 3
		_ = els
	}
	after := 4
	_ = before
	return after
}`, "f")
	bBefore := stmtBlock(t, g, "before")
	bThen := stmtBlock(t, g, "then")
	bElse := stmtBlock(t, g, "els")
	bAfter := stmtBlock(t, g, "after")
	if bThen == bElse {
		t.Fatalf("then and else share a block")
	}
	for _, tc := range []struct {
		from, to *Block
		want     bool
	}{
		{bBefore, bThen, true},
		{bBefore, bElse, true},
		{bThen, bAfter, true},
		{bElse, bAfter, true},
		{bThen, bElse, false},
		{bAfter, bBefore, false},
	} {
		if got := g.Reaches(tc.from, tc.to); got != tc.want {
			t.Errorf("Reaches(%s, %s) = %v, want %v", tc.from.Kind, tc.to.Kind, got, tc.want)
		}
	}
	if !g.Reaches(bAfter, g.Exit) {
		t.Errorf("after block does not reach exit")
	}
}

func TestForLoopBackEdge(t *testing.T) {
	g, _ := parseFunc(t, `package x
func f(n int) int {
	sum := 0
	for i := 0; i < n; i++ {
		body := i
		sum += body
	}
	after := sum
	return after
}`, "f")
	bBody := stmtBlock(t, g, "body")
	bAfter := stmtBlock(t, g, "after")
	if !g.Reaches(bBody, bBody) {
		t.Errorf("loop body does not reach itself (missing back edge)")
	}
	if !g.Reaches(bBody, bAfter) {
		t.Errorf("loop body does not reach the after block")
	}
	if g.Reaches(bAfter, bBody) {
		t.Errorf("after block reaches back into the loop")
	}
}

func TestInfiniteForOnlyExitsViaBreak(t *testing.T) {
	g, _ := parseFunc(t, `package x
func f(c bool) {
	for {
		inner := 1
		_ = inner
		if c {
			break
		}
	}
	after := 2
	_ = after
}`, "f")
	bInner := stmtBlock(t, g, "inner")
	bAfter := stmtBlock(t, g, "after")
	if !g.Reaches(bInner, bAfter) {
		t.Errorf("break does not leave the infinite loop")
	}
	// Without the break, for{} would not reach after. Check entry reaches
	// the loop but the only path to after goes through the if.
	if !g.Reaches(g.Blocks[0], bAfter) {
		t.Errorf("entry does not reach after")
	}
}

func TestLabeledBreakContinue(t *testing.T) {
	g, _ := parseFunc(t, `package x
func f(m [][]int) int {
	found := 0
outer:
	for _, row := range m {
		for _, v := range row {
			if v < 0 {
				continue outer
			}
			if v == 99 {
				hit := v
				found = hit
				break outer
			}
			inner := v
			_ = inner
		}
		tail := 1
		_ = tail
	}
	after := found
	return after
}`, "f")
	bInner := stmtBlock(t, g, "inner")
	bTail := stmtBlock(t, g, "tail")
	bAfter := stmtBlock(t, g, "after")
	bHit := stmtBlock(t, g, "hit")
	// break outer jumps past the outer loop entirely: the hit block must
	// reach after without passing through the outer loop's tail.
	if !g.Reaches(bHit, bAfter) {
		t.Errorf("break outer does not reach the after block")
	}
	seen := g.Reachable(bHit)
	if seen[bTail] {
		t.Errorf("break outer falls into the outer loop tail")
	}
	if !g.Reaches(bInner, bTail) {
		t.Errorf("inner loop does not fall through to the outer tail")
	}
}

func TestSwitchFallthroughAndDefault(t *testing.T) {
	g, _ := parseFunc(t, `package x
func f(n int) int {
	switch n {
	case 1:
		one := 1
		_ = one
		fallthrough
	case 2:
		two := 2
		_ = two
	default:
		dflt := 3
		_ = dflt
	}
	after := 4
	return after
}`, "f")
	bOne := stmtBlock(t, g, "one")
	bTwo := stmtBlock(t, g, "two")
	bDflt := stmtBlock(t, g, "dflt")
	bAfter := stmtBlock(t, g, "after")
	if !g.Reaches(bOne, bTwo) {
		t.Errorf("fallthrough edge missing from case 1 to case 2")
	}
	if g.Reaches(bTwo, bDflt) {
		t.Errorf("case 2 should not reach default")
	}
	for _, b := range []*Block{bOne, bTwo, bDflt} {
		if !g.Reaches(b, bAfter) {
			t.Errorf("case block %q does not reach after", b.Kind)
		}
	}
}

func TestSwitchNoDefaultSkips(t *testing.T) {
	g, _ := parseFunc(t, `package x
func f(n int) int {
	pre := 0
	switch n {
	case 1:
		one := 1
		_ = one
	}
	after := 2
	_ = pre
	return after
}`, "f")
	bPre := stmtBlock(t, g, "pre")
	bOne := stmtBlock(t, g, "one")
	bAfter := stmtBlock(t, g, "after")
	if !g.Reaches(bPre, bAfter) {
		t.Errorf("switch without default must have a skip edge to after")
	}
	if !g.Reaches(bPre, bOne) || !g.Reaches(bOne, bAfter) {
		t.Errorf("case body disconnected")
	}
}

func TestGotoForwardAndBackward(t *testing.T) {
	// No declarations below the gotos: the spec forbids jumping over them.
	g, _ := parseFunc(t, `package x
func f(c bool) {
	_ = 101
	if c {
		goto done
	}
	_ = 102
	if !c {
		goto retry
	}
	return
retry:
	_ = 103
done:
	_ = 104
}`, "f")
	bGotoDone := stmtBlock(t, g, "done")
	bMid := stmtBlock(t, g, "102")
	bRtr := stmtBlock(t, g, "103")
	bFin := stmtBlock(t, g, "104")
	// Forward goto: the `goto done` block jumps straight to done, never
	// through the middle or retry sections.
	if !g.Reaches(bGotoDone, bFin) {
		t.Errorf("forward goto done not wired")
	}
	if g.Reaches(bGotoDone, bMid) || g.Reaches(bGotoDone, bRtr) {
		t.Errorf("goto done passes through skipped code")
	}
	// goto retry is the only route from mid to retry (the fallthrough path
	// returns first).
	if !g.Reaches(bMid, bRtr) {
		t.Errorf("goto retry not wired")
	}
	if !g.Reaches(bRtr, bFin) {
		t.Errorf("retry does not fall through to done")
	}
}

func TestDeferCollectedAndReturnTerminates(t *testing.T) {
	g, fd := parseFunc(t, `package x
func f(c bool) int {
	defer func() {}()
	if c {
		early := 1
		return early
	}
	defer func() {}()
	late := 2
	return late
}`, "f")
	var defers []*ast.DeferStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			defers = append(defers, d)
		}
		return true
	})
	if len(defers) != 2 {
		t.Fatalf("found %d defer statements, want 2", len(defers))
	}
	for _, d := range defers {
		if g.BlockOf(d) == nil {
			t.Errorf("defer at %v is not a node of any block", d.Pos())
		}
	}
	bEarly := stmtBlock(t, g, "early")
	bLate := stmtBlock(t, g, "late")
	if !g.Reaches(bEarly, g.Exit) || !g.Reaches(bLate, g.Exit) {
		t.Errorf("return paths do not reach exit")
	}
	if g.Reaches(bEarly, bLate) {
		t.Errorf("early return falls through to later code")
	}
}

func TestUnreachableAfterReturn(t *testing.T) {
	g, _ := parseFunc(t, `package x
func f() int {
	return 1
	dead := 2
	_ = dead
	return dead
}`, "f")
	bDead := stmtBlock(t, g, "dead")
	if len(bDead.Preds) != 0 {
		t.Errorf("dead code block has %d preds, want 0", len(bDead.Preds))
	}
	if g.Reaches(g.Blocks[0], bDead) {
		t.Errorf("entry reaches dead code")
	}
}

func TestSelectClauses(t *testing.T) {
	g, _ := parseFunc(t, `package x
func f(a, b chan int) int {
	select {
	case va := <-a:
		_ = va
	case vb := <-b:
		_ = vb
	}
	after := 1
	return after
}`, "f")
	bA := stmtBlock(t, g, "va")
	bB := stmtBlock(t, g, "vb")
	bAfter := stmtBlock(t, g, "after")
	if bA == bB {
		t.Fatalf("select clauses share a block")
	}
	if !g.Reaches(bA, bAfter) || !g.Reaches(bB, bAfter) {
		t.Errorf("select clauses do not reach after")
	}
	if g.Reaches(bA, bB) {
		t.Errorf("select clauses reach each other")
	}
}

func TestBlockOfDescendsExpressions(t *testing.T) {
	g, fd := parseFunc(t, `package x
func f(a, b int) int {
	c := a + b*2
	return c
}`, "f")
	var addExpr ast.Expr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if be, ok := n.(*ast.BinaryExpr); ok && be.Op == token.MUL {
			addExpr = be
			return false
		}
		return true
	})
	if addExpr == nil {
		t.Fatal("b*2 not found")
	}
	if g.BlockOf(addExpr) == nil {
		t.Errorf("BlockOf does not descend into expressions")
	}
}

func TestFuncLitBodyIsOpaque(t *testing.T) {
	g, fd := parseFunc(t, `package x
func f() func() int {
	return func() int {
		inner := 1
		return inner
	}
}`, "f")
	var innerAssign ast.Stmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			innerAssign = lit.Body.List[0]
			return false
		}
		return true
	})
	if innerAssign == nil {
		t.Fatal("func literal body not found")
	}
	if b := g.BlockOf(innerAssign); b != nil {
		t.Errorf("literal interior mapped to enclosing graph block %q", b.Kind)
	}
}

func TestLaunches(t *testing.T) {
	src := `package x
import "sync"
func f(n int) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
	go g(n)
	wg.Wait()
}
func g(int) {}`
	file, err := parser.ParseFile(token.NewFileSet(), "x.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	launches := Launches(file)
	if len(launches) != 2 {
		t.Fatalf("Launches = %d, want 2", len(launches))
	}
	lit := launches[0]
	if lit.Lit == nil || lit.Callee != ast.Expr(lit.Lit) {
		t.Fatalf("first launch should be a func literal")
	}
	named := launches[1]
	if named.Lit != nil {
		t.Errorf("named-call launch should have nil Lit")
	}
	if id, ok := named.Callee.(*ast.Ident); !ok || id.Name != "g" {
		t.Errorf("named-call callee = %v, want g", named.Callee)
	}
}
