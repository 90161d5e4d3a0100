package lint

import (
	"go/ast"
	"go/types"

	"sigil/internal/lint/analysis"
	"sigil/internal/lint/cfg"
)

// Goleak requires every `go` statement to have a statically visible join or
// cancellation path. A goroutine is considered bounded when its body:
//
//   - pairs with a sync.WaitGroup: it calls Done (usually deferred) and a
//     Wait call exists — in the launching function it must be reachable
//     from the launch site on the CFG; a Wait elsewhere in the package
//     (a type that joins its goroutines in a stop method, not where it
//     spawns them) also counts;
//   - drains a channel to completion: `for x := range ch` terminates when
//     the producer closes the channel;
//   - listens for cancellation: it receives from a channel (a stop chan
//     struct{} or a select case) or consults ctx.Done()/ctx.Err();
//   - hands its result back: it sends on or closes a channel that the
//     launching function reads, reachably from the launch site.
//
// Anything else — most commonly `go doWork()` fired and forgotten — is a
// leak under error paths even when the happy path looks fine. Where the
// boundedness is real but invisible (an http.Server whose Serve returns
// when the listener closes), suppress with //sigil:lint-allow goleak and
// say why.
var Goleak = &analysis.Analyzer{
	Name: "goleak",
	Doc: "every go statement needs a reachable join or cancel: WaitGroup Done/Wait " +
		"pairing, range over a closed channel, ctx/stop-channel cancellation, or a " +
		"result channel the launcher reads",
	Run: runGoleak,
}

func runGoleak(pass *analysis.Pass) (any, error) {
	pkgHasWait := packageHasWaitGroupWait(pass)
	decls := namedFuncBodies(pass)

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			g := cfg.New(fd.Body)
			for _, l := range cfg.Launches(fd.Body, pass.TypesInfo) {
				checkLaunch(pass, fd, g, l, pkgHasWait, decls)
			}
		}
	}
	return nil, nil
}

func checkLaunch(pass *analysis.Pass, fd *ast.FuncDecl, g *cfg.Graph, l cfg.Launch, pkgHasWait bool, decls map[*types.Func]*ast.FuncDecl) {
	body := launchBody(pass, l, decls)
	if body == nil {
		pass.Reportf(l.Stmt.Pos(),
			"goroutine body is not visible in this package, so no join or cancel can be verified; wrap it in a closure with explicit lifecycle or suppress with a reason")
		return
	}

	// WaitGroup pairing: Done in the body plus a reachable (or
	// cross-function) Wait.
	if bodyCallsWaitGroup(pass, body, "Done") {
		if wait := firstWaitGroupWait(pass, fd.Body); wait != nil {
			launchBlock := g.BlockOf(l.Stmt)
			waitBlock := g.BlockOf(wait)
			if launchBlock != nil && waitBlock != nil && !g.Reaches(launchBlock, waitBlock) {
				pass.Reportf(l.Stmt.Pos(),
					"goroutine calls Done but the enclosing function's Wait is not reachable from this launch on any path")
			}
			return
		}
		if pkgHasWait {
			return // joined elsewhere in the package (e.g. a finish method)
		}
		pass.Reportf(l.Stmt.Pos(), "goroutine calls Done but no WaitGroup Wait exists in this package")
		return
	}

	// Channel-draining loop: bounded by the producer closing the channel.
	if bodyRangesOverChannel(pass, body) {
		return
	}
	// Cancellation: a receive (stop channel, select case) or context use.
	if bodyReceivesFromChannel(pass, body) || bodyUsesContextDone(pass, body) {
		return
	}
	// Result handoff: the body sends on or closes a channel the launcher
	// reads, reachably from the launch site.
	if joined, bad := resultChannelJoined(pass, fd, g, l, body); joined {
		return
	} else if bad != "" {
		pass.Reportf(l.Stmt.Pos(), "%s", bad)
		return
	}

	pass.Reportf(l.Stmt.Pos(),
		"goroutine has no reachable join or cancel: pair it with a WaitGroup, drain a closed channel, watch a stop/ctx signal, or read its result channel")
}

// launchBody resolves the launched code: the literal's body, or the body of
// a same-package named function or method.
func launchBody(pass *analysis.Pass, l cfg.Launch, decls map[*types.Func]*ast.FuncDecl) *ast.BlockStmt {
	if l.Lit != nil {
		return l.Lit.Body
	}
	var id *ast.Ident
	switch callee := l.Callee.(type) {
	case *ast.Ident:
		id = callee
	case *ast.SelectorExpr:
		id = callee.Sel
	default:
		return nil
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	if fd := decls[fn]; fd != nil {
		return fd.Body
	}
	return nil
}

func namedFuncBodies(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	return decls
}

// isWaitGroupMethodCall reports whether call is (*sync.WaitGroup).<name>.
func isWaitGroupMethodCall(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

func bodyCallsWaitGroup(pass *analysis.Pass, body ast.Node, method string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isWaitGroupMethodCall(pass, call, method) {
			found = true
		}
		return !found
	})
	return found
}

// firstWaitGroupWait returns the first Wait call statement in the function
// body outside nested literals, or nil.
func firstWaitGroupWait(pass *analysis.Pass, body *ast.BlockStmt) ast.Node {
	var found ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isWaitGroupMethodCall(pass, call, "Wait") {
			found = call
		}
		return found == nil
	})
	return found
}

func packageHasWaitGroupWait(pass *analysis.Pass) bool {
	for _, f := range pass.Files {
		found := false
		ast.Inspect(f, func(n ast.Node) bool {
			if found {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok && isWaitGroupMethodCall(pass, call, "Wait") {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func isChannel(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

func bodyRangesOverChannel(pass *analysis.Pass, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if rs, ok := n.(*ast.RangeStmt); ok && isChannel(pass, rs.X) {
			found = true
		}
		return !found
	})
	return found
}

func bodyReceivesFromChannel(pass *analysis.Pass, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if ue, ok := n.(*ast.UnaryExpr); ok && ue.Op.String() == "<-" && isChannel(pass, ue.X) {
			found = true
		}
		return !found
	})
	return found
}

func bodyUsesContextDone(pass *analysis.Pass, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Done" && sel.Sel.Name != "Err") {
			return true
		}
		t := pass.TypesInfo.TypeOf(sel.X)
		if t == nil {
			return true
		}
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context" {
				found = true
			}
		}
		return !found
	})
	return found
}

// resultChannelJoined checks the handoff pattern: the body sends on or
// closes a channel variable that the launching function receives from (or
// ranges over) at a block reachable from the launch. Returns joined=true
// when satisfied; when the body does hand off but no reachable read exists,
// returns a specific message.
func resultChannelJoined(pass *analysis.Pass, fd *ast.FuncDecl, g *cfg.Graph, l cfg.Launch, body ast.Node) (joined bool, bad string) {
	// Channels the goroutine writes to or closes.
	written := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if obj := chanObject(pass, n.Chan); obj != nil {
				written[obj] = true
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				if bi, isB := pass.TypesInfo.Uses[id].(*types.Builtin); isB && bi.Name() == "close" && len(n.Args) == 1 {
					if obj := chanObject(pass, n.Args[0]); obj != nil {
						written[obj] = true
					}
				}
			}
		}
		return true
	})
	if len(written) == 0 {
		return false, ""
	}

	// Reads of those channels in the launching function, outside literals.
	launchBlock := g.BlockOf(l.Stmt)
	readReachable := false
	sawRead := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && (l.Lit == nil || lit != l.Lit) {
			return false
		}
		var ch ast.Expr
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				ch = n.X
			}
		case *ast.RangeStmt:
			if isChannel(pass, n.X) {
				ch = n.X
			}
		}
		if ch == nil {
			return true
		}
		obj := chanObject(pass, ch)
		if obj == nil || !written[obj] {
			return true
		}
		sawRead = true
		if launchBlock == nil {
			readReachable = true // degraded: cannot place the launch, accept
			return true
		}
		if rb := g.BlockOf(n); rb != nil && g.Reaches(launchBlock, rb) {
			readReachable = true
		}
		return true
	})
	if readReachable {
		return true, ""
	}
	if sawRead {
		return false, "goroutine hands its result to a channel, but no read of that channel is reachable from the launch site on the CFG"
	}
	return false, "goroutine sends on a channel the launching function never reads; the send blocks forever if the consumer is missing"
}

// chanObject resolves the root object of a channel expression (a variable
// or field), so sends and receives can be matched up.
func chanObject(pass *analysis.Pass, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[e.Sel]
	case *ast.ParenExpr:
		return chanObject(pass, e.X)
	}
	return nil
}
