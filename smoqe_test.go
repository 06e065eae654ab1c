package smoqe_test

import (
	"fmt"
	"strings"
	"testing"

	"smoqe"
	"smoqe/internal/hospital"
)

func TestQuickstartFlow(t *testing.T) {
	doc, err := smoqe.ParseDocumentString(hospital.SampleXML)
	if err != nil {
		t.Fatal(err)
	}
	got, err := smoqe.EvalString(hospital.XPA, doc.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 { // the in-patients Alice, Erin and Frank all have visits
		t.Errorf("XP-A returned %d pnames, want 3", len(got))
	}
	for _, n := range got {
		if n.Label != "pname" {
			t.Errorf("expected pname nodes, got %q", n.Label)
		}
	}
}

func TestViewAnsweringFlow(t *testing.T) {
	docDTD, err := smoqe.ParseDTD(hospital.DocDTDSource)
	if err != nil {
		t.Fatal(err)
	}
	viewDTD, err := smoqe.ParseDTD(hospital.ViewDTDSource)
	if err != nil {
		t.Fatal(err)
	}
	v, err := smoqe.ParseView(hospital.Sigma0Source, docDTD, viewDTD)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := smoqe.ParseDocumentString(hospital.SampleXML)
	if err != nil {
		t.Fatal(err)
	}
	q, err := smoqe.ParseQuery(hospital.QExample11)
	if err != nil {
		t.Fatal(err)
	}
	// Rewriting route.
	answers, err := smoqe.AnswerOnView(v, q, doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 1 {
		t.Fatalf("AnswerOnView = %d nodes, want 1 (Alice)", len(answers))
	}
	// Materialization route must agree through provenance.
	mat, err := smoqe.Materialize(v, doc)
	if err != nil {
		t.Fatal(err)
	}
	viewNodes := smoqe.EvalReference(q, mat.Doc.Root)
	srcNodes := mat.SourceOf(viewNodes)
	if len(srcNodes) != 1 || srcNodes[0] != answers[0] {
		t.Error("materialization route disagrees with rewriting route")
	}
}

func TestEnginesViaPublicAPI(t *testing.T) {
	doc, _ := smoqe.ParseDocumentString(hospital.SampleXML)
	q, _ := smoqe.ParseQuery(hospital.RXC)
	m, err := smoqe.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	p := smoqe.PrepareMFA(m)
	hype := evalWith(t, p, doc.Root, smoqe.EvalOptions{}).Nodes
	cd := smoqe.BuildColumnar(doc)
	optC := evalWith(t, p, nil, smoqe.EvalOptions{Columnar: cd, Index: smoqe.BuildIndex(cd)}).IDs
	ref := smoqe.EvalReference(q, doc.Root)
	tp, err := smoqe.EvalTwoPass(q, doc.Root)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]*smoqe.Node{"hype": hype, "twopass": tp} {
		if len(got) != len(ref) {
			t.Errorf("%s: %d nodes, reference %d", name, len(got), len(ref))
		}
	}
	if fmt.Sprint(optC) != fmt.Sprint(smoqe.IDsOf(ref)) {
		t.Errorf("optC: ids %v, reference %v", optC, smoqe.IDsOf(ref))
	}
}

func TestInFragmentX(t *testing.T) {
	q1, _ := smoqe.ParseQuery("a//b[c]")
	if !smoqe.InFragmentX(q1) {
		t.Error("a//b[c] is in X")
	}
	q2, _ := smoqe.ParseQuery("(a/b)*")
	if smoqe.InFragmentX(q2) {
		t.Error("(a/b)* is not in X")
	}
}

func TestErrorPropagation(t *testing.T) {
	if _, err := smoqe.ParseQuery("a//"); err == nil {
		t.Error("bad query must error")
	}
	if _, err := smoqe.EvalString("a[", nil); err == nil {
		t.Error("bad query must error before touching ctx")
	}
	if _, err := smoqe.ParseDTD("dtd x {}"); err == nil {
		t.Error("bad DTD must error")
	}
	v := hospital.Sigma0()
	q, _ := smoqe.ParseQuery("patient")
	if _, err := smoqe.AnswerOnView(v, q, nil); err == nil || !strings.Contains(err.Error(), "empty document") {
		t.Errorf("nil document must be rejected, got %v", err)
	}
}

func TestMFAStatsExposed(t *testing.T) {
	v := hospital.Sigma0()
	q, _ := smoqe.ParseQuery(hospital.QExample41)
	m, err := smoqe.Rewrite(v, q)
	if err != nil {
		t.Fatal(err)
	}
	st := m.ComputeStats()
	if st.Size == 0 || st.NFAStates == 0 {
		t.Errorf("stats empty: %+v", st)
	}
	doc, _ := smoqe.ParseDocumentString(hospital.SampleXML)
	if evalWith(t, smoqe.PrepareMFA(m), doc.Root, smoqe.EvalOptions{}).Stats.VisitedElements == 0 {
		t.Error("engine stats not populated")
	}
}

func TestBatchViaPublicAPI(t *testing.T) {
	doc, _ := smoqe.ParseDocumentString(hospital.SampleXML)
	q1, _ := smoqe.ParseQuery(hospital.XPA)
	q2, _ := smoqe.ParseQuery("//diagnosis")
	m1, _ := smoqe.Compile(q1)
	m2, _ := smoqe.Compile(q2)
	merged, err := smoqe.Merge([]*smoqe.MFA{m1, m2})
	if err != nil {
		t.Fatal(err)
	}
	results := evalWith(t, smoqe.PrepareMFA(merged), doc.Root, smoqe.EvalOptions{}).Tagged
	if len(results) != 2 {
		t.Fatalf("buckets = %d", len(results))
	}
	if len(results[0]) != len(smoqe.EvalReference(q1, doc.Root)) {
		t.Error("bucket 0 wrong")
	}
	if len(results[1]) != len(smoqe.EvalReference(q2, doc.Root)) {
		t.Error("bucket 1 wrong")
	}
}

func TestIdentityViewViaPublicAPI(t *testing.T) {
	d, _ := smoqe.ParseDTD(hospital.DocDTDSource)
	v := smoqe.IdentityView(d)
	q, _ := smoqe.ParseQuery("department/diagnosis") // impossible per schema
	m, err := smoqe.Rewrite(v, q)
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := smoqe.ParseDocumentString(hospital.SampleXML)
	if got := evalWith(t, smoqe.PrepareMFA(m), doc.Root, smoqe.EvalOptions{}).Nodes; len(got) != 0 {
		t.Errorf("schema-impossible query selected %d nodes", len(got))
	}
}
