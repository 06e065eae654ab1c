package rewrite

import (
	"testing"

	"smoqe/internal/dtd"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/refeval"
	"smoqe/internal/view"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

// publicView is a second-level view defined ON TOP of the σ0 view: the
// public-statistics office may only see, per exposed patient, the
// diagnoses in the patient's whole family line — not even the hierarchy
// shape. Its source DTD is σ0's TARGET DTD.
func publicView(t *testing.T) *view.View {
	t.Helper()
	tgt := dtd.MustParse(`dtd public {
		root hospital;
		hospital -> case*;
		case -> diagnosis*;
		diagnosis -> #text;
	}`)
	return view.MustParse(`view public {
		hospital/case = patient;
		case/diagnosis = (parent/patient)*/record/diagnosis;
	}`, hospital.ViewDTD(), tgt)
}

// TestStackedViews checks the composition property: for σ1 = σ0 (hospital →
// view) and σ2 = public (view → public), rewriting a public query through
// σ2 and then through σ1 answers it directly on the hospital document:
// Q(σ2(σ1(T))) = RewriteMFA(σ1, Rewrite(σ2, Q))(T).
func TestStackedViews(t *testing.T) {
	sigma1 := hospital.Sigma0()
	sigma2 := publicView(t)
	doc := hospital.SampleDocument()

	// Ground truth by double materialization with provenance composition.
	mat1, err := view.Materialize(sigma1, doc)
	if err != nil {
		t.Fatal(err)
	}
	mat2, err := view.Materialize(sigma2, mat1.Doc)
	if err != nil {
		t.Fatal(err)
	}

	queries := []string{
		".",
		"case",
		"case/diagnosis",
		"case[diagnosis/text()='heart disease']",
		"case[not(diagnosis/text()='heart disease')]",
		"**",
		"case[diagnosis]",
	}
	for _, qsrc := range queries {
		q := xpath.MustParse(qsrc)
		// Expected: answers on σ2(σ1(T)), mapped view2 → view1 → source.
		level2 := refeval.Eval(q, mat2.Doc.Root)
		level1 := mat2.SourceOf(level2)
		want := mat1.SourceOf(level1)

		m2, err := Rewrite(sigma2, q) // MFA over D_V1
		if err != nil {
			t.Fatalf("query %q: inner rewrite: %v", qsrc, err)
		}
		m, err := RewriteMFA(sigma1, m2) // MFA over D
		if err != nil {
			t.Fatalf("query %q: outer rewrite: %v", qsrc, err)
		}
		for name, got := range map[string][]*xmltree.Node{
			"mfa.Eval": mfa.Eval(m, doc.Root),
			"HyPE":     hypeEval(hype.New(m), doc.Root),
		} {
			if len(got) != len(want) {
				t.Fatalf("query %q (%s): got %d source nodes %v, want %d %v",
					qsrc, name, len(got), ids(got), len(want), ids(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("query %q (%s): node %d: %s vs %s",
						qsrc, name, i, got[i].Path(), want[i].Path())
				}
			}
		}
	}
}

// TestStackedSecurity: the public view hides everything but diagnoses; a
// query trying to reach records or parents through the stack returns
// nothing, even though both exist in the intermediate view and the source.
func TestStackedSecurity(t *testing.T) {
	sigma1 := hospital.Sigma0()
	sigma2 := publicView(t)
	doc := hospital.SampleDocument()
	for _, qsrc := range []string{"case/record", "case/parent", "patient", "//pname"} {
		m2, err := Rewrite(sigma2, xpath.MustParse(qsrc))
		if err != nil {
			t.Fatalf("%q: %v", qsrc, err)
		}
		m, err := RewriteMFA(sigma1, m2)
		if err != nil {
			t.Fatalf("%q: %v", qsrc, err)
		}
		if got := mfa.Eval(m, doc.Root); len(got) != 0 {
			t.Errorf("query %q must see nothing through the stack, got %d", qsrc, len(got))
		}
	}
}

// TestRewriteMFARejectsPosition covers the automaton-level position check.
func TestRewriteMFARejectsPosition(t *testing.T) {
	m := mfa.MustCompile(xpath.MustParse("patient[record/position()=1]"))
	if _, err := RewriteMFA(hospital.Sigma0(), m); err == nil {
		t.Error("position() predicate must be rejected at the MFA level")
	}
}

func ids(ns []*xmltree.Node) []int { return xmltree.IDsOf(ns) }
