// Package guardcheck enforces panic isolation on goroutines launched in
// the serving packages (see analysis.Serving). A panic in an unguarded
// goroutine kills the whole daemon — and in the shard-parallel evaluator
// it also strands the WaitGroup barrier, deadlocking the merge. Every `go`
// statement there must recover, in one of the accepted shapes:
//
//	go func() { defer guard.Recover("site", &err); ... }()
//	go func() { defer func() { ...recover()... }(); ... }()
//	go func() { ... worker(t) ... }()   // worker defers a recover itself
//	go func() { _ = guard.Protect("site", f) }()
//
// The third shape follows calls one level deep into same-package
// functions — the evaluator's worker loop recovers inside runShard, not
// in the closure — which keeps the check useful without whole-program
// dataflow.
package guardcheck

import (
	"go/ast"
	"go/types"

	"smoqe/internal/analysis"
)

// Analyzer is the guardcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "guardcheck",
	Doc:  "goroutines in serving packages recover panics via internal/guard",
	Run:  run,
}

// guardPkgName is the package providing the recovery primitives.
const guardPkgName = "guard"

func run(pass *analysis.Pass) error {
	if !analysis.Serving(pass.Pkg.Path) {
		return nil
	}
	c := &checker{pass: pass, decls: make(map[types.Object]*ast.FuncDecl)}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.Pkg.Info.Defs[fd.Name]; obj != nil {
					c.decls[obj] = fd
				}
			}
		}
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !c.guarded(gs.Call) {
				c.pass.Reportf(gs.Pos(), "goroutine without panic recovery: defer guard.Recover, recover in a deferred closure, or run the body via guard.Protect")
			}
			return true
		})
	}
	return nil
}

type checker struct {
	pass  *analysis.Pass
	decls map[types.Object]*ast.FuncDecl
}

// guarded reports whether the goroutine's entry call recovers panics.
func (c *checker) guarded(call *ast.CallExpr) bool {
	if c.isGuardCall(call) {
		return true
	}
	switch fun := call.Fun.(type) {
	case *ast.FuncLit:
		return c.bodyRecovers(fun.Body, true)
	default:
		if fd := c.calleeDecl(fun); fd != nil {
			return c.bodyRecovers(fd.Body, true)
		}
	}
	return false
}

// bodyRecovers reports whether a function body establishes a recovery
// boundary: a recovering defer, a call to guard.Protect, or — when
// follow is set — a call to a same-package function that does (one level
// deep only).
func (c *checker) bodyRecovers(body *ast.BlockStmt, follow bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			if c.deferRecovers(n) {
				found = true
				return false
			}
		case *ast.CallExpr:
			if c.isGuardCall(n) {
				found = true
				return false
			}
			if follow {
				if fd := c.calleeDecl(n.Fun); fd != nil && c.bodyRecovers(fd.Body, false) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// deferRecovers reports whether a defer statement recovers: either
// `defer guard.Recover(...)` or a deferred closure containing recover().
func (c *checker) deferRecovers(d *ast.DeferStmt) bool {
	if c.isGuardCall(d.Call) {
		return true
	}
	lit, ok := d.Call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	recovered := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				if _, isBuiltin := c.pass.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "recover" {
					recovered = true
					return false
				}
			}
		}
		return true
	})
	return recovered
}

// isGuardCall reports whether call invokes guard.Recover or guard.Protect.
func (c *checker) isGuardCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := c.pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Name() != guardPkgName {
		return false
	}
	return fn.Name() == "Recover" || fn.Name() == "Protect"
}

// calleeDecl resolves a call target to its same-package FuncDecl, if any.
func (c *checker) calleeDecl(fun ast.Expr) *ast.FuncDecl {
	switch fun := ast.Unparen(fun).(type) {
	case *ast.Ident:
		if obj := c.pass.Pkg.Info.Uses[fun]; obj != nil {
			return c.decls[obj]
		}
	case *ast.SelectorExpr:
		if obj := c.pass.Pkg.Info.Uses[fun.Sel]; obj != nil {
			return c.decls[obj]
		}
	}
	return nil
}
