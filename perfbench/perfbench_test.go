package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// toy runs one workload at toy size and returns its exit code and result line.
func toy(t *testing.T, workload string, seed int64, trace, corrupt bool) (int, result, string) {
	t.Helper()
	dir := t.TempDir()
	o := options{
		workload:  workload,
		seed:      seed,
		seconds:   0.3,
		trace:     trace,
		size:      toySize,
		workDir:   filepath.Join(dir, "work"),
		spansPath: filepath.Join(dir, "spans.jsonl"),
		corrupt:   corrupt,
	}
	var stdout, stderr bytes.Buffer
	code := run(o, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", workload, err, stdout.String(), stderr.String())
	}
	if _, err := os.Stat(o.workDir); !os.IsNotExist(err) {
		t.Errorf("%s: work directory left behind", workload)
	}
	return code, res, stdout.String() + stderr.String()
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for i, w := range spec.Workloads {
		if i >= len(workloadNames) || w.Name != workloadNames[i] {
			t.Fatalf("BENCHMARK.json workload %d is %q, the benchmark runs %v", i, w.Name, workloadNames)
		}
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func sameKeys(t *testing.T, what string, got map[string]metricValue, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", what, len(got), len(want))
	}
	for _, name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: metric %s missing", what, name)
		}
	}
}

// TestSmoke runs every workload at toy size, untraced and traced, on two
// seeds, through the answer check.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloadNames {
		for _, seed := range []int64{1, 2} {
			code, res, out := toy(t, w, seed, false, false)
			if code != 0 || !res.Correct || res.Failed != 0 {
				t.Fatalf("%s seed %d untraced: exit %d, result %+v\n%s", w, seed, code, res, out)
			}
			sameKeys(t, w+" untraced", res.Metrics, endToEnd)
			if ok := res.Metrics["ok_frac"].Value; ok != 1 {
				t.Errorf("%s seed %d: ok_frac = %v", w, seed, ok)
			}
			code, res, out = toy(t, w, seed, true, false)
			if code != 0 || !res.Correct || res.Failed != 0 {
				t.Fatalf("%s seed %d traced: exit %d, result %+v\n%s", w, seed, code, res, out)
			}
			sameKeys(t, w+" traced", res.Metrics, perLayer)
		}
	}
}

// TestCountsRepeat checks that the counts later changes may rest claims
// on come out identical from two runs of one seed.
func TestCountsRepeat(t *testing.T) {
	exact := []string{
		"server.plancache_hit_ratio", "server.plancache_evictions_per_kreq",
		"hype.visited_per_req", "hype.afa_evals_per_req",
		"corpus.docs_evaluated_per_req", "server.resp_kb",
	}
	for _, w := range workloadNames {
		_, a, _ := toy(t, w, 7, true, false)
		_, b, _ := toy(t, w, 7, true, false)
		for _, name := range exact {
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s: %s differs between runs: %v vs %v", w, name, a.Metrics[name], b.Metrics[name])
			}
		}
	}
}

// TestWrongAnswerFails proves the answer check works: one deliberately
// wrong expected answer must fail requests and the run.
func TestWrongAnswerFails(t *testing.T) {
	for _, w := range workloadNames {
		code, res, _ := toy(t, w, 1, false, true)
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s: wrong expected answer went unnoticed: exit %d, result %+v", w, code, res)
		}
		if ok := res.Metrics["ok_frac"].Value; ok >= 1 {
			t.Errorf("%s: ok_frac = %v with a wrong expected answer", w, ok)
		}
	}
}

// TestEntryPointGuard keeps the benchmark off the evaluator-level APIs
// that ROADMAP.md plans to fold or delete (the per-variant Eval methods,
// engines, the pointer index, the slow log), so the changes it measures
// cannot break it. It calls the server, the smoqe facade's parse,
// rewrite, compile, prepare and columnar entry points, and the generator
// and oracle packages.
func TestEntryPointGuard(t *testing.T) {
	forbiddenPkg := map[string]bool{"smoqe/internal/hype": true}
	forbiddenSmoqe := map[string]bool{"Engine": true, "Index": true, "NewEngine": true, "NewOptEngine": true, "BuildIndex": true}
	forbiddenMethod := map[string]bool{"Index": true, "Columnar": true, "SetCompiled": true, "SlowLog": true}
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources: %v", err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkgs := make(map[string]string) // local name → import path
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if forbiddenPkg[path] {
				t.Errorf("%s imports %s", fset.Position(imp.Pos()), path)
			}
			local := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			pkgs[local] = path
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if id, ok := sel.X.(*ast.Ident); ok {
				if path, isPkg := pkgs[id.Name]; isPkg {
					if path == "smoqe" && (forbiddenSmoqe[name] || strings.HasPrefix(name, "Eval")) {
						t.Errorf("%s: uses smoqe.%s", fset.Position(sel.Pos()), name)
					}
					return true
				}
			}
			if forbiddenMethod[name] || strings.HasPrefix(name, "Eval") {
				t.Errorf("%s: calls .%s", fset.Position(sel.Pos()), name)
			}
			return true
		})
	}
}
