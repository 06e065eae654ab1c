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
	"smoqe/internal/refeval"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

// colEval evaluates e over cd with opts, failing the test on an error.
func colEval(t testing.TB, e *hype.Engine, cd *colstore.Document, opts hype.Options) hype.Result {
	t.Helper()
	res, err := e.Eval(context.Background(), cd, opts)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	return res
}

// TestColumnarMatchesPointerPath runs the source-query workload over a
// document's columnar form and at its root node the way a tree caller
// does (subtree conversion, ids mapped back to nodes), and demands the
// reference answers from both, with identical statistics. The hand-built
// document adds its nodes out of document order, so its Node IDs are not
// preorder ids and the mapping back to nodes is exercised for real.
func TestColumnarMatchesPointerPath(t *testing.T) {
	built := xmltree.NewDocument("hospital")
	dep := built.AddElement(built.Root, "department")
	later := built.AddElement(built.Root, "department")
	p := built.AddElement(dep, "patient")
	built.AddText(built.AddElement(p, "pname"), "Ann")
	built.AddElement(later, "patient")
	built.AddElement(p, "visit")
	docs := map[string]*xmltree.Document{
		"sample":     hospital.SampleDocument(),
		"datagen-60": datagen.Generate(datagen.DefaultConfig(60)),
		"hand-built": built,
	}
	for name, doc := range docs {
		cd := colstore.FromTree(doc)
		for _, src := range sourceQueries {
			q := xpath.MustParse(src)
			e := hype.New(mfa.MustCompile(q))
			pres, got := evalAt(t, e, doc.Root, false, hype.Options{})
			if want := xmltree.SortNodes(refeval.Eval(q, doc.Root)); !same(xmltree.SortNodes(got), want) {
				t.Errorf("%s %q: answers %v, reference %v", name, src, ids(got), ids(want))
			}
			cres := colEval(t, e, cd, hype.Options{})
			if !reflect.DeepEqual(cres.IDs, pres.IDs) {
				t.Errorf("%s %q: columnar ids = %v, at the root node %v", name, src, cres.IDs, pres.IDs)
			}
			if pres.Stats != cres.Stats {
				t.Errorf("%s %q: columnar stats = %+v, at the root node %+v", name, src, cres.Stats, pres.Stats)
			}
		}
	}
}

// TestIndexFromAnotherDocument: an index evaluates only the document it
// was built from. An index of another document — even an identical copy —
// is refused with an error instead of pruning by the wrong alphabet.
func TestIndexFromAnotherDocument(t *testing.T) {
	doc := hospital.SampleDocument()
	cd, other := colstore.FromTree(doc), colstore.FromTree(doc)
	q := xpath.MustParse("department/patient[visit]/pname")
	e := hype.New(mfa.MustCompile(q))
	res, err := e.Eval(context.Background(), cd, hype.Options{Index: hype.BuildIndex(cd)})
	if err != nil {
		t.Fatalf("own index: %v", err)
	}
	if want := ids(refeval.Eval(q, doc.Root)); !reflect.DeepEqual(res.IDs, want) {
		t.Errorf("own index: answers %v, want %v", res.IDs, want)
	}
	for _, w := range []int{0, 4} {
		if _, err := e.Eval(context.Background(), cd, hype.Options{Index: hype.BuildIndex(other), Workers: w}); err == nil {
			t.Errorf("workers=%d: an index of another document was accepted", w)
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
	if _, err := hype.New(m).Eval(ctx, cd, hype.Options{}); err == nil {
		t.Fatal("cancelled context: want error")
	}
}

func TestColumnarLimits(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(200))
	cd := colstore.FromTree(doc)
	m := mfa.MustCompile(xpath.MustParse("//patient"))
	_, err := hype.New(m).Eval(context.Background(), cd, hype.Options{Limits: hype.Limits{MaxVisited: 50}})
	if err == nil {
		t.Fatal("exceeded visit budget: want error")
	}
	var le *hype.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("want *LimitError, got %T: %v", err, err)
	}
}
