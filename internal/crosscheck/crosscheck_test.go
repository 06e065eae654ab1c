// Package crosscheck_test holds the repository's heaviest property-based
// tests: all five evaluation engines must agree on hundreds of generated
// queries over generated documents, and the rewriting algorithm must
// satisfy Q(σ(T)) = M(T) exactly on generated view queries.
package crosscheck_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/qgen"
	"smoqe/internal/refeval"
	"smoqe/internal/rewrite"
	"smoqe/internal/twopass"
	"smoqe/internal/view"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

// preorderOf maps every node of d to its preorder rank, the id space of the
// columnar store.
func preorderOf(d *xmltree.Document) map[*xmltree.Node]int {
	idx := make(map[*xmltree.Node]int, d.NumNodes())
	d.Walk(func(n *xmltree.Node) bool {
		idx[n] = len(idx)
		return true
	})
	return idx
}

// checkColumnar evaluates m over the columnar document cd, with and
// without its index ix, and demands the preorder ids of the reference
// answer, exactly.
func checkColumnar(t *testing.T, tag string, m *mfa.MFA, cd *colstore.Document, ix *hype.Index, idx map[*xmltree.Node]int, want []*xmltree.Node) {
	t.Helper()
	wantIDs := make([]int, len(want))
	for j, n := range want {
		wantIDs[j] = idx[n]
	}
	sort.Ints(wantIDs)
	for _, opts := range []hype.Options{{}, {Index: ix}} {
		got := columnarRun(t, m, cd, opts).IDs
		if len(got) != len(wantIDs) {
			t.Fatalf("%s (index=%v): columnar returned %d nodes, reference %d", tag, opts.Index != nil, len(got), len(wantIDs))
		}
		for j := range got {
			if got[j] != wantIDs[j] {
				t.Fatalf("%s (index=%v): columnar result %d is preorder id %d, want %d", tag, opts.Index != nil, j, got[j], wantIDs[j])
			}
		}
	}
}

var corpusTexts = []string{
	"heart disease", "flu", "lung disease", "ecg", "xray", "statin",
	"Edinburgh", "nonexistent value",
}

func corpus(t testing.TB, patients int, seed int64) *xmltree.Document {
	t.Helper()
	cfg := datagen.DefaultConfig(patients)
	cfg.Seed = seed
	return datagen.Generate(cfg)
}

// TestEnginesAgreeOnGeneratedQueries is the engine-equivalence property:
// refeval (set semantics), the naive MFA product evaluator, HyPE and
// OptHyPE-C (at the root node and over the registered columnar form) and
// the two-pass baseline must return identical answers.
func TestEnginesAgreeOnGeneratedQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	doc := corpus(t, 60, 11)
	cd := colstore.FromTree(doc)
	ix := hype.BuildIndex(cd)
	pre := preorderOf(doc)
	g := qgen.New(hospital.DocDTD(), 1234, corpusTexts)
	nonEmpty := 0
	for i := 0; i < 250; i++ {
		q := g.Query()
		src := q.String()
		want := refeval.Eval(q, doc.Root)
		if len(want) > 0 {
			nonEmpty++
		}
		m, err := mfa.Compile(q)
		if err != nil {
			t.Fatalf("query %d %q: compile: %v", i, src, err)
		}
		check := func(name string, got []*xmltree.Node) {
			if len(got) != len(want) {
				t.Fatalf("query %d %q: %s returned %d nodes, reference %d",
					i, src, name, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("query %d %q: %s result %d differs", i, src, name, j)
				}
			}
		}
		check("mfa.Eval", mfa.Eval(m, doc.Root))
		check("HyPE", hypeEval(t, hype.New(m), doc.Root))
		check("OptHyPE-C", optEval(t, hype.New(m), doc.Root))
		check("twopass", twopass.MustNew(q).Eval(doc.Root))
		checkColumnar(t, fmt.Sprintf("query %d %q", i, src), m, cd, ix, pre, want)
	}
	if nonEmpty < 25 {
		t.Errorf("only %d/250 generated queries had nonempty results; generator too weak", nonEmpty)
	}
}

// TestRewriteCorrectnessOnGeneratedQueries is the central theorem of the
// paper, checked exactly: for generated view queries Q, the source nodes
// behind Q(σ0(T)) equal Eval(rewrite(Q, σ0), T).
func TestRewriteCorrectnessOnGeneratedQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	v := hospital.Sigma0()
	doc := corpus(t, 50, 23)
	mat, err := view.Materialize(v, doc)
	if err != nil {
		t.Fatal(err)
	}
	cd := colstore.FromTree(doc)
	ix := hype.BuildIndex(cd)
	pre := preorderOf(doc)
	g := qgen.New(hospital.ViewDTD(), 999, []string{"heart disease", "flu", "lung disease"})
	nonEmpty := 0
	for i := 0; i < 200; i++ {
		q := g.Query()
		src := q.String()
		viewRes := refeval.Eval(q, mat.Doc.Root)
		want := mat.SourceOf(viewRes)
		if len(want) > 0 {
			nonEmpty++
		}
		m, err := rewrite.Rewrite(v, q)
		if err != nil {
			t.Fatalf("query %d %q: rewrite: %v", i, src, err)
		}
		for name, got := range map[string][]*xmltree.Node{
			"mfa.Eval":  mfa.Eval(m, doc.Root),
			"HyPE":      hypeEval(t, hype.New(m), doc.Root),
			"OptHyPE-C": optEval(t, hype.New(m), doc.Root),
		} {
			if len(got) != len(want) {
				t.Fatalf("query %d %q (%s): got %d source nodes, want %d",
					i, src, name, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("query %d %q (%s): node %d differs: %s vs %s",
						i, src, name, j, got[j].Path(), want[j].Path())
				}
			}
		}
		// The rewritten automaton must answer identically on the columnar
		// source document.
		checkColumnar(t, fmt.Sprintf("view query %d %q", i, src), m, cd, ix, pre, want)
	}
	if nonEmpty < 15 {
		t.Errorf("only %d/200 generated view queries nonempty; generator too weak", nonEmpty)
	}
}

// TestRewriteOnMultipleDocuments replays a fixed query set over several
// generated documents (different seeds and sizes), including documents
// with deep ancestor chains.
func TestRewriteOnMultipleDocuments(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	v := hospital.Sigma0()
	queries := []xpath.Path{
		xpath.MustParse(hospital.QExample11),
		xpath.MustParse(hospital.QExample41),
		xpath.MustParse("patient[record/empty]"),
		xpath.MustParse("(patient/parent)*/patient/record/diagnosis"),
	}
	mfas := make([]*mfa.MFA, len(queries))
	for i, q := range queries {
		mfas[i] = rewrite.MustRewrite(v, q)
	}
	for seed := int64(1); seed <= 4; seed++ {
		cfg := datagen.DefaultConfig(40)
		cfg.Seed = seed
		cfg.HeartFrac = 0.3 // dense enough for recursive matches
		doc := datagen.Generate(cfg)
		mat, err := view.Materialize(v, doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			want := mat.SourceOf(refeval.Eval(q, mat.Doc.Root))
			got := hypeEval(t, hype.New(mfas[i]), doc.Root)
			if len(got) != len(want) {
				t.Fatalf("seed %d query %q: got %d want %d", seed, q, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("seed %d query %q: node %d differs", seed, q, j)
				}
			}
		}
	}
}

// TestToXregOnGeneratedQueries round-trips generated queries through the
// automaton representation: compile → extract → evaluate must match the
// original (Theorem 4.1 in both directions).
func TestToXregOnGeneratedQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	doc := corpus(t, 20, 31)
	g := qgen.New(hospital.DocDTD(), 555, corpusTexts)
	extracted, skipped := 0, 0
	for i := 0; i < 120; i++ {
		q := g.Query()
		m, err := mfa.Compile(q)
		if err != nil {
			t.Fatalf("query %d %q: %v", i, q, err)
		}
		back, err := mfa.ToXreg(m, 1<<20)
		if err != nil {
			skipped++ // budget exceeded is legitimate (Corollary 3.3)
			continue
		}
		extracted++
		want := refeval.Eval(q, doc.Root)
		got := refeval.Eval(back, doc.Root)
		if len(got) != len(want) {
			t.Fatalf("query %d %q: extracted %q selects %d nodes, want %d",
				i, q, back, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("query %d %q: node %d differs", i, q, j)
			}
		}
	}
	if extracted < 100 {
		t.Errorf("only %d/120 queries extracted (%d over budget)", extracted, skipped)
	}
}

// hypeRun evaluates e at tree node n the way a library call does: over
// the columnar form of n's subtree (with that form's index when indexed),
// returning the Result and the answers mapped back to n's nodes. It fails
// the test on an error.
func hypeRun(t testing.TB, e *hype.Engine, n *xmltree.Node, indexed bool, opts hype.Options) (hype.Result, []*xmltree.Node) {
	t.Helper()
	cd, nodes := colstore.FromNode(n)
	if indexed {
		opts.Index = hype.BuildIndex(cd)
	}
	res, err := e.Eval(context.Background(), cd, opts)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	out := make([]*xmltree.Node, len(res.IDs))
	for i, id := range res.IDs {
		out[i] = nodes[id]
	}
	return res, out
}

// hypeEval is the answer set of a sequential, unlimited HyPE evaluation.
func hypeEval(t testing.TB, e *hype.Engine, n *xmltree.Node) []*xmltree.Node {
	t.Helper()
	_, got := hypeRun(t, e, n, false, hype.Options{})
	return got
}

// optEval is hypeEval with the subtree index: OptHyPE-C.
func optEval(t testing.TB, e *hype.Engine, n *xmltree.Node) []*xmltree.Node {
	t.Helper()
	_, got := hypeRun(t, e, n, true, hype.Options{})
	return got
}

// columnarRun evaluates m over cd with opts, failing the test on an error.
func columnarRun(t testing.TB, m *mfa.MFA, cd *colstore.Document, opts hype.Options) hype.Result {
	t.Helper()
	res, err := hype.New(m).Eval(context.Background(), cd, opts)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	return res
}
