// Package leakcheck finds goroutines that can never terminate and cancel
// functions that are not called on every path.
//
// Goroutine termination applies to the serving packages (see
// analysis.Serving): for every go statement, each unconditional `for`
// loop in the goroutine's body — including bodies reached through static
// calls and through function literals invoked synchronously — must have a
// reachable exit: a return, a break that targets the loop, or a
// terminating call (panic, os.Exit, log.Fatal*). A loop that only selects
// on <-ctx.Done(), or ranges over a channel that will be closed, satisfies
// this by construction; a bare `break` inside a select does not (it exits
// the select, not the loop) and gets its own wording.
//
// The cancel check applies module-wide: every context.WithCancel /
// WithTimeout / WithDeadline result must have its cancel reachable on all
// paths. Assigning it to `_` is reported at the call; otherwise any use of
// the cancel variable after its creation — calling it, deferring it,
// storing it, passing it on, capturing it in a closure — discharges the
// obligation from that point on, and a return reached while it is still
// untouched is reported at the creation site.
//
// Known over-approximations (docs/ANALYSIS.md): calls through function
// values and interfaces are not followed, so a loop hidden behind an
// indirect call is invisible; any mention of the cancel variable counts as
// handling it, even a store that is itself never used; infinite recursion
// is not modelled.
package leakcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"

	"smoqe/internal/analysis"
)

// Analyzer is the leakcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name:       "leakcheck",
	Doc:        "goroutines must be able to terminate; context cancel functions must run on all paths",
	RunProgram: run,
}

type checker struct {
	pass     *analysis.Pass
	graph    *analysis.CallGraph
	reported map[token.Pos]bool
	ops      *analysis.FlowOps[cancelState]
	curPkg   *analysis.Package
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:     pass,
		graph:    pass.Program.CallGraph(),
		reported: make(map[token.Pos]bool),
	}
	c.ops = &analysis.FlowOps[cancelState]{
		Clone:    cancelState.clone,
		Merge:    mergeState,
		Replace:  replaceState,
		Transfer: c.transfer,
	}
	for _, pkg := range pass.Program.Packages {
		inScope := analysis.Serving(pkg.Path)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				c.checkCancels(pkg, fd.Body)
				if !inScope {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						c.checkGo(pkg, g)
					}
					return true
				})
			}
		}
	}
	return nil
}

// ---- goroutine termination ----

// loopRecord is one unconditional for loop found in a goroutine's body.
type loopRecord struct {
	pos             token.Position
	hasExit         bool
	selectBreakOnly bool
}

// checkGo verifies that the goroutine launched by g can terminate: every
// unconditional for loop in its transitive body has a reachable exit.
func (c *checker) checkGo(pkg *analysis.Package, g *ast.GoStmt) {
	visited := make(map[*analysis.CallNode]bool)
	var loops []loopRecord

	var visitBody func(pkg *analysis.Package, body ast.Node)
	visitBody = func(pkg *analysis.Package, body ast.Node) {
		labelOf := make(map[*ast.ForStmt]string)
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				// A nested goroutine is its own unit, checked at its site.
				return false
			case *ast.LabeledStmt:
				if fs, ok := n.Stmt.(*ast.ForStmt); ok {
					labelOf[fs] = n.Label.Name
				}
			case *ast.ForStmt:
				if n.Cond == nil {
					rec := loopRecord{pos: c.pass.Fset.Position(n.Pos())}
					rec.hasExit, rec.selectBreakOnly = loopExit(pkg, n, labelOf[n])
					loops = append(loops, rec)
				}
			case *ast.CallExpr:
				if fn := analysis.StaticCallee(pkg, n); fn != nil {
					if node := c.graph.Node(fn); node != nil && !visited[node] {
						visited[node] = true
						visitBody(node.Pkg, node.Decl.Body)
					}
				}
			}
			return true
		})
	}

	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		visitBody(pkg, lit.Body)
	} else if fn := analysis.StaticCallee(pkg, g.Call); fn != nil {
		if node := c.graph.Node(fn); node != nil {
			visited[node] = true
			visitBody(node.Pkg, node.Decl.Body)
		}
	}

	for _, l := range loops {
		if l.hasExit {
			continue
		}
		where := filepath.Base(l.pos.Filename)
		msg := "goroutine never terminates: the for loop at %s:%d has no return, loop-targeted break, or terminating call; select on <-ctx.Done() or a closed channel and return"
		if l.selectBreakOnly {
			msg += " (a bare break inside select exits the select, not the loop)"
		}
		c.report(g.Pos(), msg, where, l.pos.Line)
	}
}

// loopExit reports whether an unconditional loop has a statement that
// leaves it, and whether the only breaks seen were select-scoped.
func loopExit(pkg *analysis.Package, loop *ast.ForStmt, label string) (hasExit, selectBreakOnly bool) {
	sawSelectBreak := false
	var walk func(stmts []ast.Stmt, direct, inSelect bool) bool
	walk = func(stmts []ast.Stmt, direct, inSelect bool) bool {
		for _, s := range stmts {
			switch s := s.(type) {
			case *ast.ReturnStmt:
				return true
			case *ast.ExprStmt:
				if analysis.IsTerminalCall(pkg, s.X) {
					return true
				}
			case *ast.BranchStmt:
				if s.Tok != token.BREAK {
					continue
				}
				switch {
				case s.Label != nil:
					if label != "" && s.Label.Name == label {
						return true
					}
				case direct:
					return true
				case inSelect:
					sawSelectBreak = true
				}
			case *ast.BlockStmt:
				if walk(s.List, direct, inSelect) {
					return true
				}
			case *ast.LabeledStmt:
				if walk([]ast.Stmt{s.Stmt}, direct, inSelect) {
					return true
				}
			case *ast.IfStmt:
				if walk(s.Body.List, direct, inSelect) {
					return true
				}
				if s.Else != nil && walk([]ast.Stmt{s.Else}, direct, inSelect) {
					return true
				}
			case *ast.ForStmt:
				if walk(s.Body.List, false, false) {
					return true
				}
			case *ast.RangeStmt:
				if walk(s.Body.List, false, false) {
					return true
				}
			case *ast.SwitchStmt:
				if walkClauses(s.Body, &walk, false) {
					return true
				}
			case *ast.TypeSwitchStmt:
				if walkClauses(s.Body, &walk, false) {
					return true
				}
			case *ast.SelectStmt:
				if walkClauses(s.Body, &walk, true) {
					return true
				}
			}
		}
		return false
	}
	hasExit = walk(loop.Body.List, true, false)
	return hasExit, !hasExit && sawSelectBreak
}

// walkClauses applies walk to each clause body of a switch/select. Inside
// them an unlabeled break no longer targets the loop.
func walkClauses(body *ast.BlockStmt, walk *func([]ast.Stmt, bool, bool) bool, isSelect bool) bool {
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			stmts = cl.Body
		case *ast.CommClause:
			stmts = cl.Body
		}
		if (*walk)(stmts, false, isSelect) {
			return true
		}
	}
	return false
}

// ---- cancel propagation ----

// pendingCancel is one cancel function whose call is still owed.
type pendingCancel struct {
	pos token.Pos // the context.WithX call
	fn  string    // WithCancel / WithTimeout / WithDeadline
}

// cancelState maps cancel-function objects to their pending obligation.
type cancelState map[types.Object]pendingCancel

func (s cancelState) clone() cancelState {
	c := make(cancelState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// mergeState keeps an obligation pending if either joining path still owes
// it — must-analysis for "cancel runs on all paths".
func mergeState(a, b cancelState) cancelState {
	out := make(cancelState, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

func replaceState(dst, src cancelState) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// checkCancels flow-walks one function body (and, recursively, each
// function literal as its own unit) verifying cancel obligations.
func (c *checker) checkCancels(pkg *analysis.Package, body *ast.BlockStmt) {
	c.curPkg = pkg
	c.ops.Pkg = pkg
	state := make(cancelState)
	if !c.ops.Walk(body.List, state) {
		c.reportPending(state)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != nil {
			c.checkCancels(pkg, lit.Body)
			return false
		}
		return true
	})
}

// transfer discharges obligations on any mention of a cancel variable,
// registers new ones at context.WithX calls, and audits returns.
func (c *checker) transfer(s ast.Stmt, state cancelState) {
	c.scanMentions(s, state)
	switch s := s.(type) {
	case *ast.AssignStmt:
		c.registerCancels(s, state)
	case *ast.ReturnStmt:
		c.reportPending(state)
	}
}

// scanMentions deletes every pending obligation whose variable is used
// anywhere in the statement — called, deferred, stored, passed, returned,
// or captured by a closure.
func (c *checker) scanMentions(s ast.Stmt, state cancelState) {
	if len(state) == 0 {
		return
	}
	ast.Inspect(s, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := c.curPkg.Info.Uses[id]; obj != nil {
				delete(state, obj)
			}
		}
		return true
	})
}

// registerCancels records the obligation created by
// `ctx, cancel := context.WithX(...)`.
func (c *checker) registerCancels(s *ast.AssignStmt, state cancelState) {
	if len(s.Lhs) != 2 || len(s.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := analysis.StaticCallee(c.curPkg, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return
	}
	switch fn.Name() {
	case "WithCancel", "WithTimeout", "WithDeadline":
	default:
		return
	}
	id, ok := ast.Unparen(s.Lhs[1]).(*ast.Ident)
	if !ok {
		return
	}
	if id.Name == "_" {
		c.report(call.Pos(), "the cancel function returned by context.%s is discarded; the context and its resources leak", fn.Name())
		return
	}
	obj := c.curPkg.Info.Defs[id]
	if obj == nil {
		obj = c.curPkg.Info.Uses[id]
	}
	if obj != nil {
		state[obj] = pendingCancel{pos: call.Pos(), fn: fn.Name()}
	}
}

// reportPending flags every obligation still owed at a function exit.
func (c *checker) reportPending(state cancelState) {
	for _, p := range state {
		c.report(p.pos, "the cancel function returned by context.%s is not called on every path", p.fn)
	}
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, format, args...)
}
