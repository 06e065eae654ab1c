// Package ctxcheck enforces context plumbing on request paths. A function
// that receives a context.Context owns the caller's deadline and
// cancellation; minting a fresh root with context.Background() (or
// context.TODO()) silently detaches everything downstream from the
// request's lifetime — the evaluation keeps running after the client is
// gone, admission slots stay held, and server shutdown hangs on work
// nobody wants.
//
// Two rules, both scoped to functions that have a ctx in scope (an own or
// captured context.Context parameter):
//
//   - anywhere: a ctx-taking callee must not be handed context.Background()
//     / context.TODO() / nil as its context argument — forward ctx;
//   - in the serving packages (analysis.Serving — the request paths),
//     calling context.Background() or context.TODO() at all is flagged,
//     even when the fresh context is only stored. The rare legitimate case (detaching shutdown from an
//     already-dead request ctx) carries a //lint:ignore with its reason.
package ctxcheck

import (
	"go/ast"
	"go/types"

	"smoqe/internal/analysis"
)

// Analyzer is the ctxcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "ctxcheck",
	Doc:  "functions with a ctx forward it; no fresh root contexts on request paths",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, restricted: analysis.Serving(pass.Pkg.Path)}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkFunc(fd.Type, fd.Body, false)
			}
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	// restricted marks a serving package, where minting a root context is
	// never acceptable without an explicit ignore.
	restricted bool
}

// checkFunc walks one function body. hasCtx says whether a ctx is in
// scope — the function's own context.Context parameter, or one captured
// from an enclosing function (closures on the request path inherit the
// obligation).
func (c *checker) checkFunc(ft *ast.FuncType, body *ast.BlockStmt, hasCtx bool) {
	hasCtx = hasCtx || c.hasCtxParam(ft)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.checkFunc(n.Type, n.Body, hasCtx)
			return false
		case *ast.CallExpr:
			if !hasCtx {
				return true
			}
			if c.restricted && isFreshContext(c.pass.Pkg.Info, n) {
				c.pass.Reportf(n.Pos(), "%s() called in a function that receives a ctx: forward ctx instead of minting a root context", types.ExprString(n.Fun))
				return false
			}
			c.checkCtxArgs(n)
		}
		return true
	})
}

// hasCtxParam reports whether the function type declares a
// context.Context parameter.
func (c *checker) hasCtxParam(ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if tv, ok := c.pass.Pkg.Info.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// checkCtxArgs flags a ctx-taking callee handed a fresh or nil context.
// The fresh-context case in restricted packages is already reported at
// the Background call itself, so this only adds the non-restricted and
// nil cases.
func (c *checker) checkCtxArgs(call *ast.CallExpr) {
	tv, ok := c.pass.Pkg.Info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= params.Len() {
			pi = params.Len() - 1
		}
		if pi >= params.Len() || !isContextType(params.At(pi).Type()) {
			continue
		}
		// In restricted packages the fresh-context call is reported at the
		// call node itself; report here only for the non-restricted case.
		if inner, ok := ast.Unparen(arg).(*ast.CallExpr); ok && !c.restricted && isFreshContext(c.pass.Pkg.Info, inner) {
			c.pass.Reportf(arg.Pos(), "%s() passed to %s in a function that receives a ctx: forward ctx", types.ExprString(inner.Fun), types.ExprString(call.Fun))
			continue
		}
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok && id.Name == "nil" {
			if _, isNil := c.pass.Pkg.Info.Uses[id].(*types.Nil); isNil {
				c.pass.Reportf(arg.Pos(), "nil context passed to %s: forward ctx", types.ExprString(call.Fun))
			}
		}
	}
}

// isFreshContext reports whether call is context.Background() or
// context.TODO().
func isFreshContext(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
		(fn.Name() == "Background" || fn.Name() == "TODO")
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
