package hype_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

// preorderIndex maps every node of d to its preorder rank — the id space of
// the columnar store (xmltree IDs coincide for parsed documents but are not
// guaranteed preorder for hand-built ones, so the test maps explicitly).
func preorderIndex(d *xmltree.Document) map[*xmltree.Node]int {
	idx := make(map[*xmltree.Node]int, d.NumNodes())
	d.Walk(func(n *xmltree.Node) bool {
		idx[n] = len(idx)
		return true
	})
	return idx
}

// colEval evaluates e over cd with opts, failing the test on an error.
func colEval(t testing.TB, e *hype.Engine, cd *colstore.Document, opts hype.Options) hype.Result {
	t.Helper()
	res, err := e.EvalColumnar(context.Background(), cd, opts)
	if err != nil {
		t.Fatalf("EvalColumnar: %v", err)
	}
	return res
}

// TestColumnarMatchesPointerPath runs the full source-query workload on
// both representations and demands identical answers AND identical
// statistics — the columnar DFS must visit, prune and evaluate exactly
// what the pointer DFS does.
func TestColumnarMatchesPointerPath(t *testing.T) {
	docs := map[string]*xmltree.Document{
		"sample":     hospital.SampleDocument(),
		"datagen-60": datagen.Generate(datagen.DefaultConfig(60)),
	}
	for name, doc := range docs {
		idx := preorderIndex(doc)
		cd := colstore.FromTree(doc)
		for _, src := range sourceQueries {
			q := xpath.MustParse(src)
			m := mfa.MustCompile(q)
			e := hype.New(m)
			pres := eval(t, e, doc.Root, hype.Options{})
			want := make([]int, len(pres.Nodes))
			for i, n := range pres.Nodes {
				want[i] = idx[n]
			}
			// candNodes sorts by xmltree ID; re-sort into preorder order.
			for i := 1; i < len(want); i++ {
				for j := i; j > 0 && want[j] < want[j-1]; j-- {
					want[j], want[j-1] = want[j-1], want[j]
				}
			}
			cres := colEval(t, e, cd, hype.Options{})
			if got := cres.IDs; len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Errorf("%s %q: columnar ids = %v, want %v", name, src, got, want)
			}
			if pres.Stats != cres.Stats {
				t.Errorf("%s %q: columnar stats = %+v, pointer stats = %+v", name, src, cres.Stats, pres.Stats)
			}
		}
	}
}

// TestColumnarSnapshotAnswersIdentical checks the save→load path feeds the
// evaluator identically to a freshly built columnar document.
func TestColumnarSnapshotAnswersIdentical(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(40))
	cd := colstore.FromTree(doc)
	path := t.TempDir() + "/d" + colstore.FileExt
	if err := cd.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := colstore.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range sourceQueries {
		e := hype.New(mfa.MustCompile(xpath.MustParse(src)))
		got := colEval(t, e, loaded, hype.Options{}).IDs
		want := colEval(t, e, cd, hype.Options{}).IDs
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: loaded snapshot answers %v, want %v", src, got, want)
		}
	}
}

func TestColumnarCancellation(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(200))
	cd := colstore.FromTree(doc)
	m := mfa.MustCompile(xpath.MustParse("//patient"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := hype.New(m).EvalColumnar(ctx, cd, hype.Options{}); err == nil {
		t.Fatal("cancelled context: want error")
	}
}

func TestColumnarLimits(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(200))
	cd := colstore.FromTree(doc)
	m := mfa.MustCompile(xpath.MustParse("//patient"))
	_, err := hype.New(m).EvalColumnar(context.Background(), cd, hype.Options{Limits: hype.Limits{MaxVisited: 50}})
	if err == nil {
		t.Fatal("exceeded visit budget: want error")
	}
	var le *hype.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("want *LimitError, got %T: %v", err, err)
	}
}
