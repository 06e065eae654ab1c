package hype_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/datagen"
	"smoqe/internal/failpoint"
	"smoqe/internal/guard"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/refeval"
	"smoqe/internal/xpath"
)

func limitEngine(t *testing.T, query string) *hype.Engine {
	t.Helper()
	m, err := mfa.Compile(xpath.MustParse(query))
	if err != nil {
		t.Fatal(err)
	}
	return hype.New(m)
}

func TestMaxVisitedAbortsSequential(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(500))
	e := limitEngine(t, "//diagnosis")
	_, err := e.Eval(context.Background(), colstore.FromTree(doc), hype.Options{Limits: hype.Limits{MaxVisited: 512}})
	var le *hype.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LimitError", err)
	}
	if le.What != hype.LimitVisited || le.Limit != 512 {
		t.Errorf("LimitError = %+v", le)
	}
}

func TestMaxResultNodesAbortsSequential(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(500))
	// ** selects every element — the candidate set grows with the walk.
	e := limitEngine(t, "**")
	_, err := e.Eval(context.Background(), colstore.FromTree(doc), hype.Options{Limits: hype.Limits{MaxResultNodes: 100}})
	var le *hype.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LimitError", err)
	}
	if le.What != hype.LimitResults {
		t.Errorf("LimitError = %+v", le)
	}
}

func TestGenerousLimitsDoNotDisturbResults(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(200))
	e := limitEngine(t, "//diagnosis")
	want := eval(t, e, doc.Root, hype.Options{}).IDs

	res, err := e.Eval(context.Background(), colstore.FromTree(doc), hype.Options{Limits: hype.Limits{MaxVisited: 1 << 30, MaxResultNodes: 1 << 30}})
	if err != nil {
		t.Fatalf("generous limits aborted: %v", err)
	}
	if got := res.IDs; !reflect.DeepEqual(got, want) {
		t.Errorf("got %d nodes, want %d", len(got), len(want))
	}
}

func TestMaxVisitedAbortsParallel(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(500))
	e := limitEngine(t, "//diagnosis")
	_, err := e.Eval(context.Background(), colstore.FromTree(doc), hype.Options{Workers: 4, Limits: hype.Limits{MaxVisited: 512}})
	var le *hype.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("parallel err = %v, want *LimitError", err)
	}
	if le.What != hype.LimitVisited {
		t.Errorf("LimitError = %+v", le)
	}
}

func TestParallelGenerousLimitsMatchSequential(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(300))
	e := limitEngine(t, "//diagnosis")
	want := eval(t, e, doc.Root, hype.Options{}).IDs

	res, err := e.Eval(context.Background(), colstore.FromTree(doc), hype.Options{Workers: 4, Limits: hype.Limits{MaxVisited: 1 << 30}})
	if err != nil {
		t.Fatalf("parallel with generous limits: %v", err)
	}
	if !reflect.DeepEqual(res.IDs, want) {
		t.Errorf("got %v, want %v", res.IDs, want)
	}
}

// TestShardWorkerPanicIsIsolated: a panic inside one shard worker — injected
// via the hype.shard.worker failpoint — must surface as a typed error from
// a parallel Eval, not kill the process or hang the merge barrier.
func TestShardWorkerPanicIsIsolated(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	doc := datagen.Generate(datagen.DefaultConfig(300))
	cd := colstore.FromTree(doc)
	e := limitEngine(t, "//diagnosis")

	if err := failpoint.Enable(failpoint.SiteHypeShardWorker, "panic"); err != nil {
		t.Fatal(err)
	}
	_, err := e.Eval(context.Background(), cd, hype.Options{Workers: 4})
	var pe *guard.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *guard.PanicError", err)
	}
	if pe.Site != failpoint.SiteHypeShardWorker {
		t.Errorf("site = %q", pe.Site)
	}

	// The engine must recover fully: disarm and evaluate again.
	failpoint.DisableAll()
	want := eval(t, limitEngine(t, "//diagnosis"), doc.Root, hype.Options{}).IDs
	res, err := e.Eval(context.Background(), cd, hype.Options{Workers: 4})
	if err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	if !reflect.DeepEqual(res.IDs, want) {
		t.Errorf("after recovery: %d nodes, want %d", len(res.IDs), len(want))
	}
}

// TestShardWorkerErrorFailpoint: error mode fails the evaluation cleanly.
func TestShardWorkerErrorFailpoint(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	doc := datagen.Generate(datagen.DefaultConfig(300))
	e := limitEngine(t, "//diagnosis")
	if err := failpoint.Enable(failpoint.SiteHypeShardWorker, "error"); err != nil {
		t.Fatal(err)
	}
	_, err := e.Eval(context.Background(), colstore.FromTree(doc), hype.Options{Workers: 4})
	var fe *failpoint.Error
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *failpoint.Error", err)
	}
}

// TestColumnarLimitsMatchPointer audits EvalLimits across the ways one
// document is evaluated: over its registered columnar form, over the
// conversion a call at its root node makes, and with a hybrid cache of cap
// 1 (constant flushing). At any budget every way must trip the SAME limit
// (same *LimitError What/Limit) at the SAME point — consumption is flushed
// in identical cancelCheckInterval quanta over the identical preorder DFS,
// so even the partial visited counts of aborted runs agree. Runs under a
// generous budget must return the reference answers.
func TestColumnarLimitsMatchPointer(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(500))
	cd := colstore.FromTree(doc)
	queries := []string{"//diagnosis", "**", "department/patient[visit]/pname"}
	budgets := []hype.Limits{
		{MaxVisited: 256},
		{MaxVisited: 512},
		{MaxVisited: 1 << 30}, // generous: no way may trip
		{MaxResultNodes: 50},
		{MaxResultNodes: 1 << 30},
		{MaxVisited: 512, MaxResultNodes: 50},
	}
	for _, src := range queries {
		ref := ids(refeval.Eval(xpath.MustParse(src), doc.Root))
		for _, l := range budgets {
			want, wantErr := limitEngine(t, src).Eval(context.Background(), cd, hype.Options{Limits: l})
			var wantLE *hype.LimitError
			errors.As(wantErr, &wantLE)
			if wantErr == nil && !reflect.DeepEqual(want.IDs, ref) {
				t.Errorf("%q limits=%+v: answers %v, reference %v", src, l, want.IDs, ref)
			}
			node, _ := colstore.FromNode(doc.Root)
			tiny := limitEngine(t, src)
			tiny.SetCompiledCacheCap(1)
			for way, run := range map[string]func() (hype.Result, error){
				"node": func() (hype.Result, error) {
					return limitEngine(t, src).Eval(context.Background(), node, hype.Options{Limits: l})
				},
				"cap 1": func() (hype.Result, error) { return tiny.Eval(context.Background(), cd, hype.Options{Limits: l}) },
			} {
				got, gotErr := run()
				var gotLE *hype.LimitError
				if errors.As(gotErr, &gotLE) != (wantLE != nil) {
					t.Fatalf("%q limits=%+v %s: err=%v, columnar err=%v", src, l, way, gotErr, wantErr)
				}
				if gotLE != nil && (gotLE.What != wantLE.What || gotLE.Limit != wantLE.Limit) {
					t.Errorf("%q limits=%+v %s: %+v vs columnar %+v", src, l, way, gotLE, wantLE)
				}
				if got.Stats.VisitedElements != want.Stats.VisitedElements {
					t.Errorf("%q limits=%+v %s: visited %d vs %d (columnar)",
						src, l, way, got.Stats.VisitedElements, want.Stats.VisitedElements)
				}
			}
		}
	}
}

// TestMergeFailpoint: the hype.merge site fails a parallel run after the
// barrier.
func TestMergeFailpoint(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	doc := datagen.Generate(datagen.DefaultConfig(300))
	e := limitEngine(t, "//diagnosis")
	if err := failpoint.Enable(failpoint.SiteHypeMerge, "error"); err != nil {
		t.Fatal(err)
	}
	_, err := e.Eval(context.Background(), colstore.FromTree(doc), hype.Options{Workers: 4})
	var fe *failpoint.Error
	if !errors.As(err, &fe) || fe.Site != failpoint.SiteHypeMerge {
		t.Fatalf("err = %v, want merge failpoint error", err)
	}
}
