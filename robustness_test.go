package smoqe_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"smoqe"
	"smoqe/internal/datagen"
	"smoqe/internal/failpoint"
	"smoqe/internal/guard"
	"smoqe/internal/hospital"
)

// TestPreparedQueryPanicRecovery: a panic during evaluation — injected in
// a shard worker via a failpoint — must come back as a typed error from
// Eval, and the engine pool must not be poisoned: the next
// evaluation on the same PreparedQuery succeeds with correct answers.
func TestPreparedQueryPanicRecovery(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	doc := datagen.Generate(datagen.DefaultConfig(120))
	p, err := smoqe.Prepare(nil, "//diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(smoqe.IDsOf(evalWith(t, p, doc.Root, smoqe.EvalOptions{}).Nodes))

	if err := failpoint.Enable(failpoint.SiteHypeShardWorker, "panic"); err != nil {
		t.Fatal(err)
	}
	par := smoqe.EvalOptions{Workers: 4}
	_, err = p.Eval(context.Background(), doc.Root, par)
	var pe *guard.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *guard.PanicError", err)
	}
	failpoint.DisableAll()

	// Pool must be clean: repeated evaluations still agree with the
	// pre-panic answer.
	for i := 0; i < 4; i++ {
		res, err := p.Eval(context.Background(), doc.Root, par)
		if err != nil {
			t.Fatalf("round %d after recovery: %v", i, err)
		}
		if got := fmt.Sprint(smoqe.IDsOf(res.Nodes)); got != want {
			t.Errorf("round %d: got %v, want %v", i, got, want)
		}
		if got := fmt.Sprint(smoqe.IDsOf(evalWith(t, p, doc.Root, smoqe.EvalOptions{}).Nodes)); got != want {
			t.Errorf("round %d sequential: got %v, want %v", i, got, want)
		}
	}
}

// TestPreparedQueryEvalLimits: budgets passed to one Eval reach the pooled
// engine and surface as *EvalLimitError, without touching later calls.
func TestPreparedQueryEvalLimits(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(500))
	p, err := smoqe.Prepare(nil, "//diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Eval(context.Background(), doc.Root, smoqe.EvalOptions{Limits: smoqe.EvalLimits{MaxVisited: 512}})
	var le *smoqe.EvalLimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *EvalLimitError", err)
	}

	// A call without limits evaluates normally on the same pool.
	res, err := p.Eval(context.Background(), doc.Root, smoqe.EvalOptions{})
	if err != nil {
		t.Fatalf("after the limited run: %v", err)
	}
	if len(res.Nodes) == 0 {
		t.Error("no results after clearing limits")
	}
}

// TestParseDocumentWithLimits: the facade surfaces the loader limits.
func TestParseDocumentWithLimits(t *testing.T) {
	_, err := smoqe.ParseDocumentStringWithLimits(hospital.SampleXML, smoqe.ParseLimits{MaxNodes: 5})
	var le *smoqe.ParseLimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *ParseLimitError", err)
	}
	if _, err := smoqe.ParseDocumentStringWithLimits(hospital.SampleXML, smoqe.ParseLimits{}); err != nil {
		t.Fatalf("unlimited parse: %v", err)
	}
}
