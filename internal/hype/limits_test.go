package hype_test

import (
	"context"
	"errors"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/datagen"
	"smoqe/internal/failpoint"
	"smoqe/internal/guard"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
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
	_, err := e.Eval(context.Background(), doc.Root, hype.Options{Limits: hype.Limits{MaxVisited: 512}})
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
	_, err := e.Eval(context.Background(), doc.Root, hype.Options{Limits: hype.Limits{MaxResultNodes: 100}})
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
	want := answers(t, e, doc.Root)

	res, err := e.Eval(context.Background(), doc.Root, hype.Options{Limits: hype.Limits{MaxVisited: 1 << 30, MaxResultNodes: 1 << 30}})
	if err != nil {
		t.Fatalf("generous limits aborted: %v", err)
	}
	if got := res.Nodes; len(got) != len(want) {
		t.Errorf("got %d nodes, want %d", len(got), len(want))
	}
}

func TestMaxVisitedAbortsParallel(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(500))
	e := limitEngine(t, "//diagnosis")
	_, err := e.Eval(context.Background(), doc.Root, hype.Options{Workers: 4, Limits: hype.Limits{MaxVisited: 512}})
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
	want := answers(t, e, doc.Root)

	res, err := e.Eval(context.Background(), doc.Root, hype.Options{Workers: 4, Limits: hype.Limits{MaxVisited: 1 << 30}})
	if err != nil {
		t.Fatalf("parallel with generous limits: %v", err)
	}
	got := res.Nodes
	if len(got) != len(want) {
		t.Errorf("got %d nodes, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("node %d differs", i)
		}
	}
}

// TestShardWorkerPanicIsIsolated: a panic inside one shard worker — injected
// via the hype.shard.worker failpoint — must surface as a typed error from
// a parallel Eval, not kill the process or hang the merge barrier.
func TestShardWorkerPanicIsIsolated(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	doc := datagen.Generate(datagen.DefaultConfig(300))
	e := limitEngine(t, "//diagnosis")

	if err := failpoint.Enable(failpoint.SiteHypeShardWorker, "panic"); err != nil {
		t.Fatal(err)
	}
	_, err := e.Eval(context.Background(), doc.Root, hype.Options{Workers: 4})
	var pe *guard.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *guard.PanicError", err)
	}
	if pe.Site != failpoint.SiteHypeShardWorker {
		t.Errorf("site = %q", pe.Site)
	}

	// The engine must recover fully: disarm and evaluate again.
	failpoint.DisableAll()
	want := answers(t, limitEngine(t, "//diagnosis"), doc.Root)
	res, err := e.Eval(context.Background(), doc.Root, hype.Options{Workers: 4})
	if err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	if len(res.Nodes) != len(want) {
		t.Errorf("after recovery: %d nodes, want %d", len(res.Nodes), len(want))
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
	_, err := e.Eval(context.Background(), doc.Root, hype.Options{Workers: 4})
	var fe *failpoint.Error
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *failpoint.Error", err)
	}
}

// TestColumnarLimitsMatchPointer is the satellite audit of EvalLimits on the
// columnar path: at any budget, pointer and columnar evaluation must trip
// the SAME limit (same *LimitError What/Limit) at the SAME point — both
// paths flush consumption in identical cancelCheckInterval quanta over the
// identical preorder DFS, so even the partial visited counts of aborted
// runs must agree. The columnar pass is compiled; it is checked against the
// compiled and the interpreted pointer pass.
func TestColumnarLimitsMatchPointer(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(500))
	cd := colstore.FromTree(doc)
	queries := []string{"//diagnosis", "**", "department/patient[visit]/pname"}
	budgets := []hype.Limits{
		{MaxVisited: 256},
		{MaxVisited: 512},
		{MaxVisited: 1 << 30}, // generous: neither path may trip
		{MaxResultNodes: 50},
		{MaxResultNodes: 1 << 30},
		{MaxVisited: 512, MaxResultNodes: 50},
	}
	for _, src := range queries {
		for _, l := range budgets {
			for _, compiled := range []bool{true, false} {
				ptr := limitEngine(t, src)
				ptr.SetCompiled(compiled)
				ptrRes, ptrErr := ptr.Eval(context.Background(), doc.Root, hype.Options{Limits: l})
				ptrStats := ptrRes.Stats

				col := limitEngine(t, src)
				colRes, colErr := col.EvalColumnar(context.Background(), cd, hype.Options{Limits: l})
				colStats := colRes.Stats

				var ptrLE, colLE *hype.LimitError
				if errors.As(ptrErr, &ptrLE) != errors.As(colErr, &colLE) {
					t.Fatalf("%q limits=%+v compiled=%v: pointer err=%v, columnar err=%v",
						src, l, compiled, ptrErr, colErr)
				}
				if ptrLE != nil && (ptrLE.What != colLE.What || ptrLE.Limit != colLE.Limit) {
					t.Errorf("%q limits=%+v compiled=%v: pointer %+v vs columnar %+v",
						src, l, compiled, ptrLE, colLE)
				}
				if ptrStats.VisitedElements != colStats.VisitedElements {
					t.Errorf("%q limits=%+v compiled=%v: visited %d (pointer) vs %d (columnar)",
						src, l, compiled, ptrStats.VisitedElements, colStats.VisitedElements)
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
	_, err := e.Eval(context.Background(), doc.Root, hype.Options{Workers: 4})
	var fe *failpoint.Error
	if !errors.As(err, &fe) || fe.Site != failpoint.SiteHypeMerge {
		t.Fatalf("err = %v, want merge failpoint error", err)
	}
}
