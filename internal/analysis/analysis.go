// Package analysis is a dependency-free static-analysis driver for the
// SMOQE tree: a small subset of the golang.org/x/tools analysis framework
// rebuilt on the standard library alone (go/ast, go/parser, go/types,
// go/importer), because this module deliberately has no third-party
// dependencies. cmd/smoqevet wires the domain-specific analyzers
// (lockcheck, atomiccheck, failpointcheck, metriccheck, ctxcheck,
// guardcheck) into a vet-style CLI that CI gates on.
//
// An Analyzer inspects type-checked packages and reports position-accurate
// diagnostics. Per-package analyzers set Run; whole-program analyzers
// (cross-package invariants like "every failpoint site constant is injected
// somewhere") set RunProgram instead and see every loaded package at once.
//
// Diagnostics can be suppressed in source with a directive on the offending
// line or the line directly above it:
//
//	//lint:ignore <checks> <reason>
//
// where <checks> is a comma-separated list of analyzer names (or *) and
// <reason> is mandatory free text — an ignore without a reason is itself a
// diagnostic. See docs/ANALYSIS.md for the conventions each analyzer
// enforces.
package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// servingPaths are the import-path fragments of the serving packages.
var servingPaths = []string{"internal/server", "internal/hype", "internal/corpus"}

// Serving reports whether the package at import path is a serving package,
// one whose path contains internal/server, internal/hype or
// internal/corpus: the request paths that ctxcheck, guardcheck, leakcheck
// and spancheck hold to their stricter rules.
func Serving(path string) bool {
	for _, sub := range servingPaths {
		if strings.Contains(path, sub) {
			return true
		}
	}
	return false
}

// Analyzer is one named check. Exactly one of Run and RunProgram must be
// set: Run sees one package at a time, RunProgram sees the whole loaded
// program (for invariants that span packages).
type Analyzer struct {
	// Name identifies the analyzer in output and //lint:ignore directives.
	Name string
	// Doc is a one-line description shown by smoqevet -list.
	Doc string
	// Run analyzes a single package (pass.Pkg is set).
	Run func(*Pass) error
	// RunProgram analyzes the whole program (pass.Program is set, pass.Pkg
	// is nil).
	RunProgram func(*Pass) error
}

// Diagnostic is one finding: where, by which analyzer, and what.
// Suppressed findings (covered by a //lint:ignore directive) are dropped
// by Run but kept, flagged, by RunWith — machine consumers (-json) see
// them, the exit status does not count them.
type Diagnostic struct {
	Pos        token.Position
	Analyzer   string
	Message    string
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Package is one parsed and type-checked package.
type Package struct {
	// Path is the package's import path (for fixture packages, the path
	// relative to the fixture source root).
	Path string
	// Dir is the directory the package's files were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// ignores holds the parsed //lint:ignore directives, keyed by filename.
	ignores map[string][]*ignoreDirective
	// directiveErrs are malformed directives, reported unconditionally.
	directiveErrs []Diagnostic
}

// Program is every package of one analysis run.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package

	cgOnce sync.Once
	cg     *CallGraph
}

// Pass carries one analyzer invocation's context and collects its
// diagnostics. Per-package analyzers read Pkg; program analyzers read
// Program.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Program  *Program
	Fset     *token.FileSet

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos. Diagnostics on a line covered by a
// matching //lint:ignore directive are dropped by the driver.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ignoreDirective is one parsed //lint:ignore comment. It suppresses
// matching diagnostics on its own line and the line directly below it.
type ignoreDirective struct {
	pos    token.Position
	line   int
	checks []string
	reason string
	used   bool // set when the directive suppressed at least one diagnostic
}

func (d ignoreDirective) matches(analyzer string) bool {
	for _, c := range d.checks {
		if c == "*" || c == analyzer {
			return true
		}
	}
	return false
}

const ignorePrefix = "//lint:ignore"

// parseIgnores scans a file's comments for //lint:ignore directives.
// Malformed directives (no checks, or no reason) are returned as
// diagnostics so a typo cannot silently disable a check.
func parseIgnores(fset *token.FileSet, file *ast.File) ([]*ignoreDirective, []Diagnostic) {
	var dirs []*ignoreDirective
	var errs []Diagnostic
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, ignorePrefix)
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				errs = append(errs, Diagnostic{
					Pos:      fset.Position(c.Pos()),
					Analyzer: "lint",
					Message:  "malformed directive: want //lint:ignore <checks> <reason>",
				})
				continue
			}
			dirs = append(dirs, &ignoreDirective{
				pos:    fset.Position(c.Pos()),
				line:   fset.Position(c.Pos()).Line,
				checks: strings.Split(fields[0], ","),
				reason: strings.Join(fields[1:], " "),
			})
		}
	}
	return dirs, errs
}

// markSuppressed reports whether d is covered by an ignore directive of
// its file — one on the same line (trailing comment) or the line directly
// above — and marks every covering directive used, for stale detection.
// Callers serialize access (the collector lock).
func (prog *Program) markSuppressed(d Diagnostic) bool {
	suppressed := false
	for _, pkg := range prog.Packages {
		dirs, ok := pkg.ignores[d.Pos.Filename]
		if !ok {
			continue
		}
		for _, dir := range dirs {
			if (dir.line == d.Pos.Line || dir.line+1 == d.Pos.Line) && dir.matches(d.Analyzer) {
				dir.used = true
				suppressed = true
			}
		}
	}
	return suppressed
}

// RunOptions tunes a RunWith invocation.
type RunOptions struct {
	// Workers caps how many (analyzer, package) tasks run concurrently;
	// values below 1 mean sequential. Output is position-sorted either
	// way, so parallel and sequential runs print identically.
	Workers int
	// StaleIgnores reports //lint:ignore directives that suppressed no
	// diagnostic of the run (analyzer "lint"). Only enable it when every
	// analyzer a directive could name is part of the run — with a
	// filtered analyzer set, a directive for an unselected check would be
	// falsely stale.
	StaleIgnores bool
}

// Run executes the analyzers over the program and returns the surviving
// diagnostics sorted by position. Suppressed findings are dropped;
// malformed //lint:ignore directives are always reported (analyzer "lint").
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, err := RunWith(prog, analyzers, RunOptions{})
	kept := diags[:0]
	for _, d := range diags {
		if !d.Suppressed {
			kept = append(kept, d)
		}
	}
	return kept, err
}

// RunWith executes the analyzers over the program and returns every
// diagnostic — suppressed ones included, flagged — sorted by position.
// With Workers > 1, per-package analyzer invocations run concurrently;
// the sorted result is byte-identical to a sequential run.
func RunWith(prog *Program, analyzers []*Analyzer, opt RunOptions) ([]Diagnostic, error) {
	for _, a := range analyzers {
		if a.Run == nil && a.RunProgram == nil {
			return nil, fmt.Errorf("analysis: %s: neither Run nor RunProgram set", a.Name)
		}
	}

	var mu sync.Mutex // guards diags, errs, and directive used bits
	var diags []Diagnostic
	var errs []error
	collect := func(d Diagnostic) {
		mu.Lock()
		defer mu.Unlock()
		d.Suppressed = prog.markSuppressed(d)
		diags = append(diags, d)
	}
	for _, pkg := range prog.Packages {
		diags = append(diags, pkg.directiveErrs...)
	}

	type task struct {
		a   *Analyzer
		pkg *Package // nil for RunProgram tasks
	}
	var tasks []task
	for _, a := range analyzers {
		if a.RunProgram != nil {
			tasks = append(tasks, task{a: a})
			continue
		}
		for _, pkg := range prog.Packages {
			tasks = append(tasks, task{a: a, pkg: pkg})
		}
	}

	runTask := func(t task) {
		pass := &Pass{Analyzer: t.a, Pkg: t.pkg, Program: prog, Fset: prog.Fset, report: collect}
		var err error
		if t.pkg == nil {
			if err = t.a.RunProgram(pass); err != nil {
				err = fmt.Errorf("analysis: %s: %w", t.a.Name, err)
			}
		} else {
			if err = t.a.Run(pass); err != nil {
				err = fmt.Errorf("analysis: %s: %s: %w", t.a.Name, t.pkg.Path, err)
			}
		}
		if err != nil {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		}
	}

	if opt.Workers <= 1 {
		for _, t := range tasks {
			runTask(t)
		}
	} else {
		sem := make(chan struct{}, opt.Workers)
		var wg sync.WaitGroup
		for _, t := range tasks {
			wg.Add(1)
			sem <- struct{}{}
			go func(t task) {
				defer wg.Done()
				defer func() { <-sem }()
				runTask(t)
			}(t)
		}
		wg.Wait()
	}

	if opt.StaleIgnores {
		for _, pkg := range prog.Packages {
			for _, dirs := range pkg.ignores {
				for _, dir := range dirs {
					if dir.used {
						continue
					}
					diags = append(diags, Diagnostic{
						Pos:      dir.pos,
						Analyzer: "lint",
						Message: fmt.Sprintf("stale //lint:ignore %s directive: suppresses no diagnostic",
							strings.Join(dir.checks, ",")),
					})
				}
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	if len(errs) > 0 {
		sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
		return diags, errors.Join(errs...)
	}
	return diags, nil
}
