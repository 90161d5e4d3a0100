package cfg

import "go/ast"

// Launch describes one `go` statement: where it is and what it runs. For a
// launched named call (`go e.runWorker(s)`), the receiver and arguments
// are the values that cross the goroutine boundary; inspect Stmt.Call.
type Launch struct {
	Stmt *ast.GoStmt
	// Lit is the launched function literal, or nil when the go statement
	// calls a named function or method.
	Lit *ast.FuncLit
	// Callee is the called expression (the FuncLit, a *ast.Ident, or a
	// *ast.SelectorExpr).
	Callee ast.Expr
}

// Launches collects every `go` statement under root, including those
// inside nested function literals.
func Launches(root ast.Node) []Launch {
	var out []Launch
	ast.Inspect(root, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		l := Launch{Stmt: gs, Callee: gs.Call.Fun}
		l.Lit, _ = gs.Call.Fun.(*ast.FuncLit)
		out = append(out, l)
		return true
	})
	return out
}
