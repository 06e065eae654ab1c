package hype_test

import (
	"context"
	"reflect"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/refeval"
	"smoqe/internal/rewrite"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

// sourceQueries are the source-side queries of the table tests and of the
// golden pin (see hype.SourceQueries).
var sourceQueries = hype.SourceQueries

// variant is one evaluation strategy of the table tests.
type variant struct {
	name    string
	indexed bool
}

// variants are the strategies the table tests run: HyPE, and OptHyPE-C
// with the index of the evaluated document.
var variants = []variant{{"HyPE", false}, {"OptHyPE-C", true}}

func TestHyPEMatchesOraclesOnSample(t *testing.T) {
	doc := hospital.SampleDocument()
	for _, src := range sourceQueries {
		q := xpath.MustParse(src)
		want := refeval.Eval(q, doc.Root)
		m := mfa.MustCompile(q)
		if got := mfa.Eval(m, doc.Root); !same(got, want) {
			t.Fatalf("oracle disagreement for %q: mfa %v vs ref %v", src, ids(got), ids(want))
		}
		for _, v := range variants {
			got := answers(t, hype.New(m), doc.Root, v.indexed)
			if !same(got, want) {
				t.Errorf("%s: query %q:\n got %v\nwant %v", v.name, src, ids(got), ids(want))
			}
		}
	}
}

func TestHyPEAtInteriorContext(t *testing.T) {
	doc := hospital.SampleDocument()
	dep := doc.Root.ElementChildren()[0]
	for _, src := range []string{"patient", "patient/visit", "patient[visit/treatment/test]", "(patient | patient/parent/patient)/pname"} {
		q := xpath.MustParse(src)
		want := refeval.Eval(q, dep)
		m := mfa.MustCompile(q)
		for _, v := range variants {
			if got := answers(t, hype.New(m), dep, v.indexed); !same(got, want) {
				t.Errorf("%s at %s: query %q: got %v want %v", v.name, dep.Path(), src, ids(got), ids(want))
			}
		}
	}
}

func TestHyPEOnRewrittenMFAs(t *testing.T) {
	// HyPE must agree with the naive MFA evaluator on rewritten automata
	// (which exercise ε-cycles, shared product AFAs and GuardStart).
	v := hospital.Sigma0()
	doc := hospital.SampleDocument()
	for _, src := range []string{
		"patient",
		"patient/record/diagnosis",
		hospital.QExample11,
		hospital.QExample41,
		"patient[not(parent)]",
		"(patient/parent)*/patient[record/empty]",
		"patient[*//diagnosis/text()='heart disease']",
	} {
		m := rewrite.MustRewrite(v, xpath.MustParse(src))
		want := mfa.Eval(m, doc.Root)
		for _, v := range variants {
			if got := answers(t, hype.New(m), doc.Root, v.indexed); !same(got, want) {
				t.Errorf("%s: rewritten %q: got %v want %v", v.name, src, ids(got), ids(want))
			}
		}
	}
}

func TestPruningHappens(t *testing.T) {
	doc := hospital.SampleDocument()
	total := doc.ComputeStats().Elements
	// A query that only needs the pname spine should skip visit subtrees.
	q := xpath.MustParse("department/patient/pname")
	m := mfa.MustCompile(q)

	base := eval(t, hype.New(m), doc.Root, hype.Options{}).Stats
	if base.VisitedElements >= total {
		t.Errorf("HyPE visited all %d elements; expected pruning", total)
	}
	if base.SkippedSubtrees == 0 {
		t.Error("HyPE skipped nothing")
	}

	opt := evalIndexed(t, hype.New(m), doc.Root).Stats
	if opt.VisitedElements > base.VisitedElements {
		t.Errorf("OptHyPE visited more (%d) than HyPE (%d)", opt.VisitedElements, base.VisitedElements)
	}
	if opt.SkippedElements == 0 {
		t.Error("OptHyPE should report skipped element counts")
	}
	// Visited + skipped accounts for every element in the tree.
	if opt.VisitedElements+opt.SkippedElements != total {
		t.Errorf("visited %d + skipped %d != total %d", opt.VisitedElements, opt.SkippedElements, total)
	}
}

func TestOptHyPEPrunesMore(t *testing.T) {
	// A selective text filter lets the index skip subtrees whose alphabet
	// can never satisfy the automaton.
	doc := hospital.SampleDocument()
	q := xpath.MustParse("department/patient[parent/patient/parent/patient]/pname")
	m := mfa.MustCompile(q)
	h := eval(t, hype.New(m), doc.Root, hype.Options{}).Stats
	o := evalIndexed(t, hype.New(m), doc.Root).Stats
	if o.VisitedElements >= h.VisitedElements {
		t.Errorf("OptHyPE visited %d, HyPE %d; index should prune more",
			o.VisitedElements, h.VisitedElements)
	}
}

// TestIndexBasics checks the preorder index columns against a walk of the
// tree: every element's strict-subtree label set and element count, the
// hash-consing of equal sets, and the root's count.
func TestIndexBasics(t *testing.T) {
	doc := hospital.SampleDocument()
	cd := colstore.FromTree(doc)
	ix := hype.BuildIndex(cd)
	elements := 0
	doc.Walk(func(n *xmltree.Node) bool {
		if n.Kind != xmltree.Element {
			return true
		}
		elements++
		want := make(hype.LabelSet, len(ix.StrictLabels(0)))
		size := 0
		var below func(m *xmltree.Node)
		below = func(m *xmltree.Node) {
			size++
			for _, c := range m.ElementChildren() {
				id, _ := cd.LabelIDOf(c.Label)
				want[id>>6] |= 1 << (uint(id) & 63)
				below(c)
			}
		}
		below(n)
		id := int32(n.ID)
		if got := ix.StrictLabels(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("strict set at %s = %v, want %v", n.Path(), got, want)
		}
		if got := ix.SubtreeSize(id); got != size {
			t.Fatalf("subtree size at %s = %d, want %d", n.Path(), got, size)
		}
		return true
	})
	if ix.DistinctSets() >= elements/2 {
		t.Errorf("%d distinct sets for %d elements; equal sets must be shared", ix.DistinctSets(), elements)
	}
	if got, want := ix.SubtreeSize(0), doc.ComputeStats().Elements; got != want {
		t.Errorf("root subtree size %d, want %d", got, want)
	}
	// Semantics: diagnosis occurs strictly below a department.
	dep := int32(doc.Root.ElementChildren()[0].ID)
	bit, ok := cd.LabelIDOf("diagnosis")
	if !ok {
		t.Fatal("diagnosis not in the document's labels")
	}
	if !ix.StrictLabels(dep).Has(int(bit)) {
		t.Error("diagnosis must be in department's strict subtree set")
	}
}

func TestCansStatsPopulated(t *testing.T) {
	doc := hospital.SampleDocument()
	m := mfa.MustCompile(xpath.MustParse("department/patient[visit]/pname"))
	st := eval(t, hype.New(m), doc.Root, hype.Options{}).Stats
	if st.CansVertices == 0 || st.CansEdges == 0 {
		t.Errorf("cans stats empty: %+v", st)
	}
	if st.AFAEvaluations == 0 {
		t.Errorf("AFA evaluations not counted: %+v", st)
	}
	// cans must be (much) smaller than |T|×|M| and in this case smaller
	// than the visited node count times states.
	if st.CansVertices > st.VisitedElements*m.NumStates() {
		t.Errorf("cans larger than product bound: %+v", st)
	}
}

func TestEmptyResultQueries(t *testing.T) {
	doc := hospital.SampleDocument()
	for _, src := range []string{
		"nosuchlabel",
		"department/nosuch/pname",
		"department/patient[visit/treatment/medication/diagnosis/text()='no such disease']",
	} {
		m := mfa.MustCompile(xpath.MustParse(src))
		for _, v := range variants {
			if got := answers(t, hype.New(m), doc.Root, v.indexed); len(got) != 0 {
				t.Errorf("%s: %q must be empty, got %v", v.name, src, ids(got))
			}
		}
	}
}

func same(a, b []*xmltree.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func ids(ns []*xmltree.Node) []int { return xmltree.IDsOf(ns) }

// evalAt evaluates e at tree node n the way a library call does: over the
// columnar form of n's subtree (with that form's index when indexed),
// mapping the answer ids back to n's nodes. It fails the test on an error.
func evalAt(t testing.TB, e *hype.Engine, n *xmltree.Node, indexed bool, opts hype.Options) (hype.Result, []*xmltree.Node) {
	t.Helper()
	cd, nodes := colstore.FromNode(n)
	if indexed {
		opts.Index = hype.BuildIndex(cd)
	}
	res, err := e.Eval(context.Background(), cd, opts)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	return res, nodesOf(nodes, res.IDs)
}

// nodesOf maps preorder ids to the nodes of a FromNode conversion.
func nodesOf(nodes []*xmltree.Node, ids []int) []*xmltree.Node {
	out := make([]*xmltree.Node, len(ids))
	for i, id := range ids {
		out[i] = nodes[id]
	}
	return out
}

// eval is evalAt without an index.
func eval(t testing.TB, e *hype.Engine, n *xmltree.Node, opts hype.Options) hype.Result {
	t.Helper()
	res, _ := evalAt(t, e, n, false, opts)
	return res
}

// evalIndexed is a sequential OptHyPE-C evaluation at n.
func evalIndexed(t testing.TB, e *hype.Engine, n *xmltree.Node) hype.Result {
	t.Helper()
	res, _ := evalAt(t, e, n, true, hype.Options{})
	return res
}

// answers is the answer set of a sequential, unlimited evaluation.
func answers(t testing.TB, e *hype.Engine, n *xmltree.Node, indexed bool) []*xmltree.Node {
	t.Helper()
	_, got := evalAt(t, e, n, indexed, hype.Options{})
	return got
}

// TestHyPELinearity asserts Theorem 6.1's linear data complexity through a
// deterministic proxy: the number of visited elements and cans vertices
// must grow (at most) linearly when the document doubles.
func TestHyPELinearity(t *testing.T) {
	q := xpath.MustParse(hospital.RXC)
	m := mfa.MustCompile(q)
	visited := func(patients int) (int, int) {
		doc := datagen.Generate(datagen.DefaultConfig(patients))
		st := eval(t, hype.New(m), doc.Root, hype.Options{}).Stats
		return st.VisitedElements, st.CansVertices
	}
	v1, c1 := visited(500)
	v2, c2 := visited(1000)
	v4, c4 := visited(2000)
	for _, r := range []struct {
		name   string
		lo, hi int
	}{
		{"visited x2", v2 * 10 / v1, 0},
		{"visited x4", v4 * 10 / v2, 0},
		{"cans x2", c2 * 10 / c1, 0},
		{"cans x4", c4 * 10 / c2, 0},
	} {
		// Each doubling must stay within [1.5x, 2.5x] — linear growth.
		if r.lo < 15 || r.lo > 25 {
			t.Errorf("%s: growth factor %.1f, want ≈2 (v=%d/%d/%d c=%d/%d/%d)",
				r.name, float64(r.lo)/10, v1, v2, v4, c1, c2, c4)
		}
	}
}

// TestTextBloomPruning: the text fingerprint lets OptHyPE skip subtrees
// that cannot contain a required text()='c' constant — the lever behind
// the paper's 88% OptHyPE pruning average.
func TestTextBloomPruning(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(300))
	total := doc.ComputeStats().Elements
	q := xpath.MustParse(hospital.RXC) // needs text()='heart disease'
	m := mfa.MustCompile(q)

	h := eval(t, hype.New(m), doc.Root, hype.Options{})
	o := evalIndexed(t, hype.New(m), doc.Root)
	if !reflect.DeepEqual(o.IDs, h.IDs) {
		t.Fatalf("answers differ: %d vs %d", len(o.IDs), len(h.IDs))
	}
	hv, ov := h.Stats.VisitedElements, o.Stats.VisitedElements
	if ov >= hv*3/4 {
		t.Errorf("text bloom should cut visits substantially: HyPE %d, OptHyPE %d (total %d)",
			hv, ov, total)
	}
	// A query whose constant appears nowhere prunes almost everything.
	q2 := mfa.MustCompile(xpath.MustParse(
		"department/patient[(parent/patient)*/visit/treatment/medication/diagnosis/text()='no such disease']/pname"))
	o2 := evalIndexed(t, hype.New(q2), doc.Root)
	if len(o2.IDs) != 0 {
		t.Fatalf("phantom disease matched %d", len(o2.IDs))
	}
	if v := o2.Stats.VisitedElements; v > total/10 {
		t.Errorf("impossible constant should prune nearly everything: visited %d of %d", v, total)
	}
}
