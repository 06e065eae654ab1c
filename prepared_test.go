package smoqe_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"smoqe"
	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
)

// evalWith evaluates p at n with opts, failing the test on an error.
func evalWith(t testing.TB, p *smoqe.PreparedQuery, n *smoqe.Node, opts smoqe.EvalOptions) smoqe.Result {
	t.Helper()
	res, err := p.Eval(context.Background(), n, opts)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	return res
}

// TestPreparedQueryMatchesReference: prepared evaluation (HyPE and
// OptHyPE) must agree with the one-shot facade and the reference
// evaluator.
func TestPreparedQueryMatchesReference(t *testing.T) {
	doc, err := smoqe.ParseDocumentString(hospital.SampleXML)
	if err != nil {
		t.Fatal(err)
	}
	cd := smoqe.BuildColumnar(doc)
	idx := smoqe.BuildIndex(cd)
	for _, src := range []string{
		hospital.XPA,
		hospital.QExample11,
		"//diagnosis",
		"department/patient[not(visit)]",
	} {
		q, err := smoqe.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := smoqe.Prepare(nil, src)
		if err != nil {
			t.Fatal(err)
		}
		want := smoqe.IDsOf(smoqe.EvalReference(q, doc.Root))
		if got := smoqe.IDsOf(evalWith(t, p, doc.Root, smoqe.EvalOptions{}).Nodes); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: prepared %v, reference %v", src, got, want)
		}
		if got := evalWith(t, p, nil, smoqe.EvalOptions{Columnar: cd, Index: idx}).IDs; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: prepared indexed %v, reference %v", src, got, want)
		}
		// An index evaluates only the columnar document it was built from.
		if _, err := p.Eval(context.Background(), doc.Root, smoqe.EvalOptions{Index: idx}); err == nil {
			t.Errorf("%s: an index of another document was accepted", src)
		}
	}
}

// TestPreparedQueryConcurrent: one PreparedQuery, many goroutines, same
// answers every time — run under -race this exercises the engine pool.
func TestPreparedQueryConcurrent(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(120))
	cd := smoqe.BuildColumnar(doc)
	idx := smoqe.BuildIndex(cd)
	p, err := smoqe.Prepare(nil, "//patient[visit/treatment/medication/diagnosis/text()='heart disease']")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(smoqe.IDsOf(evalWith(t, p, doc.Root, smoqe.EvalOptions{}).Nodes))

	const goroutines = 16
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res, err := p.Eval(context.Background(), doc.Root, smoqe.EvalOptions{})
				if (g+i)%2 != 0 {
					res, err = p.Eval(context.Background(), nil, smoqe.EvalOptions{Columnar: cd, Index: idx})
				}
				s := fmt.Sprint(res.IDs)
				if err != nil || s != want || res.Stats.VisitedElements <= 0 {
					select {
					case errs <- fmt.Sprintf("goroutine %d round %d: %s != %s (err %v, stats %+v)", g, i, s, want, err, res.Stats):
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestPreparedOnView: the prepared path through rewrite answers view
// queries identically to AnswerOnView.
func TestPreparedOnView(t *testing.T) {
	v := hospital.Sigma0()
	doc := datagen.Generate(datagen.DefaultConfig(80))
	q, err := smoqe.ParseQuery(hospital.QExample11)
	if err != nil {
		t.Fatal(err)
	}
	p, err := smoqe.Prepare(v, hospital.QExample11)
	if err != nil {
		t.Fatal(err)
	}
	want, err := smoqe.AnswerOnView(v, q, doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := evalWith(t, p, doc.Root, smoqe.EvalOptions{}).Nodes; fmt.Sprint(smoqe.IDsOf(got)) != fmt.Sprint(smoqe.IDsOf(want)) {
		t.Errorf("prepared view answers differ: %v vs %v", smoqe.IDsOf(got), smoqe.IDsOf(want))
	}
}

// TestPreparedParallelMatchesSequential: the facade's shard-parallel
// evaluation agrees exactly with the sequential one, both plain and
// indexed, from many goroutines at once.
func TestPreparedParallelMatchesSequential(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(600))
	cd := smoqe.BuildColumnar(doc)
	idx := smoqe.BuildIndex(cd)
	for _, src := range []string{hospital.XPA, "//diagnosis", "department/patient[not(visit)]"} {
		p, err := smoqe.Prepare(nil, src)
		if err != nil {
			t.Fatal(err)
		}
		seq := evalWith(t, p, doc.Root, smoqe.EvalOptions{})
		want, wantSt := seq.Nodes, seq.Stats
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pst, err := p.Eval(context.Background(), doc.Root, smoqe.EvalOptions{Workers: 4})
				if err != nil {
					t.Errorf("%s: parallel: %v", src, err)
					return
				}
				if fmt.Sprint(smoqe.IDsOf(pst.Nodes)) != fmt.Sprint(smoqe.IDsOf(want)) {
					t.Errorf("%s: parallel answers differ", src)
				}
				if pst.Stats != wantSt {
					t.Errorf("%s: parallel stats %+v, sequential %+v", src, pst.Stats, wantSt)
				}
				ipst, err := p.Eval(context.Background(), nil, smoqe.EvalOptions{Columnar: cd, Index: idx, Workers: 4})
				if err != nil {
					t.Errorf("%s: indexed parallel: %v", src, err)
					return
				}
				if fmt.Sprint(ipst.IDs) != fmt.Sprint(smoqe.IDsOf(want)) {
					t.Errorf("%s: indexed parallel answers differ", src)
				}
				if ipst.Stats.SkippedElements < pst.Stats.SkippedElements {
					t.Errorf("%s: indexed parallel skipped fewer elements (%d) than plain (%d)",
						src, ipst.Stats.SkippedElements, pst.Stats.SkippedElements)
				}
			}()
		}
		wg.Wait()
	}
}

// TestPreparedEvalCtxCancelled: a cancelled context aborts evaluation with
// an error, and the plan stays usable.
func TestPreparedEvalCtxCancelled(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(600))
	p, err := smoqe.Prepare(nil, "//diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Eval(ctx, doc.Root, smoqe.EvalOptions{}); err == nil {
		t.Fatal("Eval with cancelled context returned nil error")
	}
	if _, err := p.Eval(ctx, doc.Root, smoqe.EvalOptions{Workers: 4}); err == nil {
		t.Fatal("parallel Eval with cancelled context returned nil error")
	}
	// And after cancellation the plan still works.
	if res, err := p.Eval(context.Background(), doc.Root, smoqe.EvalOptions{}); err != nil || len(res.Nodes) == 0 {
		t.Fatalf("plan unusable after cancelled run: %v (%d nodes)", err, len(res.Nodes))
	}
}

// TestPreparedTaggedParallel: batch evaluation through the facade, sharded.
func TestPreparedTaggedParallel(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(600))
	queries := []string{hospital.XPA, "//diagnosis", "department/patient[not(visit)]"}
	var ms []*smoqe.MFA
	for _, src := range queries {
		q, err := smoqe.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		m, err := smoqe.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	merged, err := smoqe.Merge(ms)
	if err != nil {
		t.Fatal(err)
	}
	p := smoqe.PrepareMFA(merged)
	want := evalWith(t, p, doc.Root, smoqe.EvalOptions{}).Tagged
	got := evalWith(t, p, doc.Root, smoqe.EvalOptions{Workers: 4}).Tagged
	if len(got) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(got), len(want))
	}
	for i := range want {
		if fmt.Sprint(smoqe.IDsOf(got[i])) != fmt.Sprint(smoqe.IDsOf(want[i])) {
			t.Errorf("bucket %d (%q): parallel differs", i, queries[i])
		}
	}
}

// TestPreparedBufferReuseConcurrent: pooled engine clones keep their run
// buffers between evaluations and move between goroutines. Eight
// goroutines evaluate one plan 50 times each, alternating two documents
// and the index; every answer must equal the reference evaluator's.
func TestPreparedBufferReuseConcurrent(t *testing.T) {
	type doc struct {
		root *smoqe.Node
		cd   *smoqe.ColumnarDocument
		ix   *smoqe.Index
		want map[string]string
	}
	var docs []doc
	for _, d := range []*smoqe.Document{datagen.Generate(datagen.DefaultConfig(60)), hospital.SampleDocument()} {
		cd := smoqe.BuildColumnar(d)
		docs = append(docs, doc{d.Root, cd, smoqe.BuildIndex(cd), map[string]string{}})
	}
	queries := []string{hospital.XPB, "//diagnosis"}
	for _, src := range queries {
		q, err := smoqe.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range docs {
			d.want[src] = fmt.Sprint(smoqe.IDsOf(smoqe.EvalReference(q, d.root)))
		}
	}
	for _, src := range queries {
		p, err := smoqe.Prepare(nil, src)
		if err != nil {
			t.Fatal(err)
		}
		const goroutines = 8
		const rounds = 50
		var wg sync.WaitGroup
		errs := make(chan string, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					d := docs[(g+i)%2]
					opts := smoqe.EvalOptions{Columnar: d.cd}
					if i%3 == 0 {
						opts.Index = d.ix
					}
					res, err := p.Eval(context.Background(), nil, opts)
					if got := fmt.Sprint(res.IDs); err != nil || got != d.want[src] {
						errs <- fmt.Sprintf("%q goroutine %d round %d: %s, want %s (err %v)", src, g, i, got, d.want[src], err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}
