// Package metriccheck validates telemetry registrations program-wide:
//
//   - the name passed to Registry.Counter/CounterFunc/Gauge/GaugeFunc/Histogram must
//     be a constant string matching the Prometheus metric-name grammar
//     ([a-zA-Z_:][a-zA-Z0-9_:]*), so a typo cannot produce an exposition
//     format that scrapers reject at 3am;
//   - each metric name is registered at exactly one call site across the
//     whole program — the registry keys families by name, so two call
//     sites with the same literal silently merge (or panic on a kind
//     mismatch) at runtime;
//   - constant histogram bucket bounds must be finite and strictly
//     increasing, which the runtime registry only discovers when the
//     first sample is observed.
package metriccheck

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math"

	"smoqe/internal/analysis"
)

// Analyzer is the metriccheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name:       "metriccheck",
	Doc:        "telemetry metric names are valid literals registered at exactly one site",
	RunProgram: run,
}

// telemetryPkgName is the package whose Registry methods register metrics.
const telemetryPkgName = "telemetry"

var registerMethods = map[string]bool{
	"Counter":     true,
	"CounterFunc": true,
	"Gauge":       true,
	"GaugeFunc":   true,
	"Histogram":   true,
}

func run(pass *analysis.Pass) error {
	firstSite := make(map[string]token.Position)
	for _, pkg := range pass.Program.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				method := registryMethod(pkg.Info, call)
				if method == "" || len(call.Args) == 0 {
					return true
				}
				checkName(pass, pkg, call.Args[0], firstSite)
				if method == "Histogram" && len(call.Args) >= 3 {
					checkBuckets(pass, pkg, call.Args[2])
				}
				return true
			})
		}
	}
	return nil
}

// registryMethod returns the method name if call is a registration method
// on a telemetry.Registry, else "".
func registryMethod(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || !registerMethods[fn.Name()] || fn.Pkg() == nil || fn.Pkg().Name() != telemetryPkgName {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Registry" {
		return ""
	}
	return fn.Name()
}

// checkName validates the metric-name argument and the once-per-program
// registration rule.
func checkName(pass *analysis.Pass, pkg *analysis.Package, arg ast.Expr, firstSite map[string]token.Position) {
	tv, ok := pkg.Info.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(arg.Pos(), "metric name must be a constant string, not a computed value")
		return
	}
	name := constant.StringVal(tv.Value)
	if !validMetricName(name) {
		pass.Reportf(arg.Pos(), "invalid metric name %q: want [a-zA-Z_:][a-zA-Z0-9_:]*", name)
		return
	}
	pos := pass.Fset.Position(arg.Pos())
	if first, dup := firstSite[name]; dup {
		pass.Reportf(arg.Pos(), "metric %q already registered at %s:%d", name, first.Filename, first.Line)
		return
	}
	firstSite[name] = pos
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// checkBuckets validates a composite-literal bucket slice: constant bounds
// must be finite and strictly increasing. nil or computed buckets pass.
func checkBuckets(pass *analysis.Pass, pkg *analysis.Package, arg ast.Expr) {
	lit, ok := ast.Unparen(arg).(*ast.CompositeLit)
	if !ok {
		return
	}
	prev := math.Inf(-1)
	for _, elt := range lit.Elts {
		tv, ok := pkg.Info.Types[elt]
		if !ok || tv.Value == nil {
			return // computed element: out of scope
		}
		v, _ := constant.Float64Val(constant.ToFloat(tv.Value))
		if math.IsInf(v, 0) || math.IsNaN(v) {
			pass.Reportf(elt.Pos(), "histogram bucket bound must be finite")
			return
		}
		if v <= prev {
			pass.Reportf(elt.Pos(), "histogram buckets must be strictly increasing (%v after %v)", v, prev)
			return
		}
		prev = v
	}
}
