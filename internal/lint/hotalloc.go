package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"sigil/internal/lint/analysis"
)

// Hotalloc keeps functions marked //sigil:hot allocation-free. These are
// the per-record and per-access paths — the classifier's read/write range
// handlers and the trace writer's Emit — where PR 8 found 2.4 MB/op of
// accidental garbage by hand. The static version flags
// the four allocation sources that caused it:
//
//   - interface boxing: a concrete value passed or assigned where an
//     interface is expected heap-allocates the box;
//   - fmt calls: every fmt function boxes its operands and allocates its
//     result;
//   - map iteration: ranging a map allocates its hidden iterator and
//     randomizes order;
//   - growing a function-local slice (append to a local) and closure
//     creation, both of which escape and allocate per call.
//
// Appends to fields and parameters are allowed: those are the pooled-slab
// and caller-owned-buffer patterns (trace.Writer.Emit appends to w.cur,
// which the slab pool amortizes).
var Hotalloc = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "functions marked //sigil:hot must not box into interfaces, call fmt, range " +
		"over maps, append to function-local slices, or create closures",
	Run: runHotalloc,
}

func runHotalloc(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !hasDirective(fd.Doc, "sigil:hot") {
				continue
			}
			checkHot(pass, fd)
		}
	}
	return nil, nil
}

// hasDirective reports whether the comment group carries the directive,
// alone or followed by a reason (//sigil:hot, //sigil:hot per access).
func hasDirective(cg *ast.CommentGroup, directive string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		fields := strings.Fields(strings.TrimPrefix(c.Text, "//"))
		if len(fields) > 0 && fields[0] == directive {
			return true
		}
	}
	return false
}

func checkHot(pass *analysis.Pass, fd *ast.FuncDecl) {
	locals := localVars(pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure allocates on the //sigil:hot path; hoist it to a method or a struct field set once")
			return false
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "map iteration allocates its iterator on the //sigil:hot path (and randomizes order); keep hot-path state in slices")
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, n, locals)
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				checkBoxing(pass, n.Rhs[i], pass.TypesInfo.TypeOf(lhs), "assignment")
			}
		}
		return true
	})
}

func checkHotCall(pass *analysis.Pass, call *ast.CallExpr, locals map[*types.Var]bool) {
	// fmt is banned wholesale.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if obj := pass.TypesInfo.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			pass.Reportf(call.Pos(), "fmt.%s allocates on the //sigil:hot path; format off the hot path or precompute", sel.Sel.Name)
			return
		}
	}

	// append to a function-local slice grows a per-call allocation.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if bi, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			if bi.Name() == "append" && len(call.Args) > 0 {
				if root := rootIdent(call.Args[0]); root != nil {
					if v, ok := pass.TypesInfo.Uses[root].(*types.Var); ok && locals[v] {
						pass.Reportf(call.Pos(), "append to function-local slice %s allocates per call on the //sigil:hot path; append into a field or caller-provided buffer", root.Name)
					}
				}
			}
			return // other builtins don't box
		}
	}

	// Concrete arguments passed to interface parameters box.
	sig := callSignature(pass, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
			break // xs... passes the slice through, no per-element boxing
		}
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if s, ok := last.(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		checkBoxing(pass, arg, pt, "argument")
	}
}

// checkBoxing reports rhs when it is a concrete value converted to an
// interface-typed destination.
func checkBoxing(pass *analysis.Pass, rhs ast.Expr, dst types.Type, what string) {
	if dst == nil {
		return
	}
	if _, isIface := dst.Underlying().(*types.Interface); !isIface {
		return
	}
	tv, ok := pass.TypesInfo.Types[rhs]
	if !ok || tv.Type == nil {
		return
	}
	if tv.IsNil() {
		return
	}
	if _, alreadyIface := tv.Type.Underlying().(*types.Interface); alreadyIface {
		return
	}
	pass.Reportf(rhs.Pos(), "%s boxes %s into an interface on the //sigil:hot path; keep hot-path signatures concrete", what, tv.Type)
}

// callSignature resolves the called function's signature, or nil for type
// conversions and unresolvable callees.
func callSignature(pass *analysis.Pass, call *ast.CallExpr) *types.Signature {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// localVars collects variables declared in the function body (not
// parameters, not named results): the ones whose append-growth is a fresh
// allocation every call.
func localVars(pass *analysis.Pass, fd *ast.FuncDecl) map[*types.Var]bool {
	locals := map[*types.Var]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
						locals[v] = true
					}
				}
			}
		case *ast.ValueSpec:
			for _, name := range n.Names {
				if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
					locals[v] = true
				}
			}
		}
		return true
	})
	return locals
}

// rootIdent returns the base identifier of expr (x in x, x[i], x.f chains
// rooted at an identifier), or nil.
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.IndexExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}
