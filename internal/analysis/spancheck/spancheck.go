// Package spancheck enforces span hygiene in the serving packages (see
// analysis.Serving). A span started with trace.Start or Tracer.StartRoot
// and never ended is worse than no span: its trace never finishes (root)
// or silently loses the subtree's timing (child), and nothing at runtime
// notices. Every started span must be ended by a defer of the function
// that started it, so no return and no panic between Start and End can
// leave it open:
//
//	_, sp := trace.Start(ctx, "name"); defer sp.End()
//	defer func() { ...; sp.End() }()
//
// Span and event names must be string literals — names assembled at run
// time explode the cardinality of any downstream aggregation and defeat
// grepping a trace for a known operation.
package spancheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"smoqe/internal/analysis"
)

// Analyzer is the spancheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "spancheck",
	Doc:  "spans started in serving packages are reliably ended and literally named",
	Run:  run,
}

// tracePkgName is the package providing the tracing primitives.
const tracePkgName = "trace"

func run(pass *analysis.Pass) error {
	if !analysis.Serving(pass.Pkg.Path) {
		return nil
	}
	c := &checker{pass: pass}
	for _, f := range pass.Pkg.Files {
		c.checkNames(f)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkFunc(fd.Body)
			}
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
}

// checkNames flags span and event names that are not string literals,
// anywhere in the file (function literals included).
func (c *checker) checkNames(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := c.traceFunc(call)
		if fn == nil {
			return true
		}
		switch fn.Name() {
		case "Start", "StartRoot":
			if len(call.Args) >= 2 && !isStringLit(call.Args[1]) {
				c.pass.Reportf(call.Args[1].Pos(), "span name must be a string literal")
			}
		case "Event":
			if len(call.Args) >= 1 && !isStringLit(call.Args[0]) {
				c.pass.Reportf(call.Args[0].Pos(), "event name must be a string literal")
			}
		}
		return true
	})
}

// checkFunc verifies every span started directly in this function body is
// ended by a defer of that body. Nested function literals are their own
// scope: their spans and defers are checked independently. Start calls
// anywhere in the body (an if init, a call argument) are caught.
func (c *checker) checkFunc(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.checkFunc(n.Body)
			return false
		case *ast.AssignStmt:
			if call := c.startCall(n); call != nil {
				c.checkStart(body, n, call)
				return false
			}
		case *ast.CallExpr:
			if c.isStartCall(n) {
				c.pass.Reportf(n.Pos(), "span result discarded: assign the span and End it")
				return false
			}
		}
		return true
	})
}

// checkStart verifies one `_, sp := trace.Start(...)` (or StartRoot)
// assignment: the span variable must not be blank, and must be ended by a
// defer of the function body fn.
func (c *checker) checkStart(fn *ast.BlockStmt, as *ast.AssignStmt, call *ast.CallExpr) {
	if len(as.Lhs) != 2 {
		c.pass.Reportf(call.Pos(), "span result discarded: assign the span and End it")
		return
	}
	id, ok := as.Lhs[1].(*ast.Ident)
	if !ok || id.Name == "_" {
		c.pass.Reportf(call.Pos(), "span result discarded: assign the span and End it")
		return
	}
	obj := c.pass.Pkg.Info.Defs[id]
	if obj == nil {
		obj = c.pass.Pkg.Info.Uses[id]
	}
	if obj == nil || c.deferEnds(fn, obj) {
		return
	}
	c.pass.Reportf(call.Pos(), "span %s is not ended by defer: defer %s.End() right after starting it", id.Name, id.Name)
}

// deferEnds reports whether the function body defers an End of obj's span:
// either `defer sp.End()` directly or a deferred closure containing
// `sp.End()`. Non-deferred function literals are skipped — their defers
// run on the wrong function's return.
func (c *checker) deferEnds(fn *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if c.isEndCall(n.Call, obj) {
				found = true
				return false
			}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok && c.isEndCall(call, obj) {
						found = true
						return false
					}
					return true
				})
				if found {
					return false
				}
			}
		}
		return true
	})
	return found
}

// startCall returns the trace.Start/StartRoot call on the assignment's
// right-hand side, if that is what the statement is.
func (c *checker) startCall(as *ast.AssignStmt) *ast.CallExpr {
	if len(as.Rhs) != 1 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || !c.isStartCall(call) {
		return nil
	}
	return call
}

// isStartCall reports whether call invokes trace.Start or Tracer.StartRoot.
func (c *checker) isStartCall(call *ast.CallExpr) bool {
	fn := c.traceFunc(call)
	return fn != nil && (fn.Name() == "Start" || fn.Name() == "StartRoot")
}

// isEndCall reports whether call is `sp.End()` for the span variable obj.
func (c *checker) isEndCall(call *ast.CallExpr, obj types.Object) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && c.pass.Pkg.Info.Uses[id] == obj
}

// traceFunc resolves a call to a function or method of the trace package,
// matching by package name like guardcheck does so fixture stubs work.
func (c *checker) traceFunc(call *ast.CallExpr) *types.Func {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := c.pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Name() != tracePkgName {
		return nil
	}
	return fn
}

// isStringLit reports whether e is a string literal.
func isStringLit(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Kind == token.STRING
}
