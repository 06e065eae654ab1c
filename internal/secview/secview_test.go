package secview_test

import (
	"context"
	"strings"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/dtd"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/refeval"
	"smoqe/internal/rewrite"
	"smoqe/internal/secview"
	"smoqe/internal/view"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

func deny(types ...string) secview.Policy {
	p := secview.Policy{}
	for _, t := range types {
		p[t] = secview.Rule{Action: secview.Deny}
	}
	return p
}

// hospitalPolicy hides everything identifying: departments (promoting
// patients), names, addresses, treatment internals (promoting diagnoses),
// doctors and dates.
func hospitalPolicy() secview.Policy {
	return deny(
		"department", "name", "pname", "address", "street", "city", "zip",
		"treatment", "test", "medication", "type",
		"doctor", "dname", "specialty", "date", "sibling",
	)
}

func TestDeriveHospitalView(t *testing.T) {
	d := hospital.DocDTD()
	v, err := secview.Derive(d, hospitalPolicy())
	if err != nil {
		t.Fatal(err)
	}
	// Derived annotations: through-department extraction and the
	// promoted treatment chain.
	if q := v.Query("hospital", "patient"); q == nil || q.String() != "department/patient" {
		t.Errorf("σ(hospital,patient) = %v", q)
	}
	if q := v.Query("visit", "diagnosis"); q == nil || q.String() != "treatment/medication/diagnosis" {
		t.Errorf("σ(visit,diagnosis) = %v", q)
	}
	// Denied sibling promotes its patient: patient gains a patient child.
	if q := v.Query("patient", "patient"); q == nil || q.String() != "sibling/patient" {
		t.Errorf("σ(patient,patient) = %v", q)
	}
	// The view DTD is recursive (parent/patient plus promoted siblings).
	if !v.Target.IsRecursive() {
		t.Error("derived view must be recursive")
	}

	doc := hospital.SampleDocument()
	mat, err := view.Materialize(v, doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Target.CheckDocument(mat.Doc); err != nil {
		t.Fatalf("derived view output invalid: %v", err)
	}
	// Hidden labels never appear.
	hidden := hospitalPolicy()
	mat.Doc.Walk(func(n *xmltree.Node) bool {
		if n.Kind == xmltree.Element {
			if _, bad := hidden[n.Label]; bad {
				t.Errorf("denied label %q leaked", n.Label)
			}
		}
		return true
	})

	// Rewriting over the derived view is exact.
	for _, qsrc := range []string{
		"patient",
		"patient/visit/diagnosis",
		"patient[visit/diagnosis/text()='heart disease']",
		"(patient/parent)*/patient/visit/diagnosis",
		"patient/patient", // the promoted sibling
		"**",
	} {
		q := xpath.MustParse(qsrc)
		want := mat.SourceOf(refeval.Eval(q, mat.Doc.Root))
		m, err := rewrite.Rewrite(v, q)
		if err != nil {
			t.Fatalf("rewrite %q: %v", qsrc, err)
		}
		got := hypeEval(hype.New(m), doc.Root)
		if len(got) != len(want) {
			t.Errorf("query %q: %d vs %d", qsrc, len(got), len(want))
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("query %q: node %d differs", qsrc, i)
			}
		}
	}
}

func TestDeriveStarsFromDeniedCycles(t *testing.T) {
	d := dtd.MustParse(`dtd s {
		root a;
		a -> b*;
		b -> b*, c*;
		c -> #text;
	}`)
	v, err := secview.Derive(d, deny("b"))
	if err != nil {
		t.Fatal(err)
	}
	q := v.Query("a", "c")
	if q == nil {
		t.Fatal("no derived path a→c")
	}
	// The denied cycle must surface as a Kleene star: regular XPath, not X.
	if xpath.InFragmentX(q) {
		t.Errorf("derived annotation %q should need a Kleene star", q)
	}
	doc, err := xmltree.ParseString(`<a><b><c>1</c><b><b><c>2</c></b></b></b><b><c>3</c></b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	// All c's are promoted to the root.
	got := refeval.Eval(q, doc.Root)
	if len(got) != 3 {
		t.Errorf("σ(a,c) selected %d nodes, want 3 (%s)", len(got), q)
	}
	mat, err := view.Materialize(v, doc)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(mat.Doc.Root.ElementChildren()); n != 3 {
		t.Errorf("view root has %d c children, want 3", n)
	}
}

func TestDeriveConditional(t *testing.T) {
	d := hospital.DocDTD()
	p := hospitalPolicy()
	cond, err := xpath.ParsePred("visit/treatment/medication/diagnosis/text()='heart disease'")
	if err != nil {
		t.Fatal(err)
	}
	p["patient"] = secview.Rule{Action: secview.Cond, Filter: cond}
	v, err := secview.Derive(d, p)
	if err != nil {
		t.Fatal(err)
	}
	doc := hospital.SampleDocument()
	mat, err := view.Materialize(v, doc)
	if err != nil {
		t.Fatal(err)
	}
	// Only heart-disease patients (at any level) are exposed; failing
	// patients hide their whole subtree, so Bob (healthy) blocks his
	// mother Carol despite her diagnosis, while Dan (heart disease) is
	// promoted through the denied sibling wrapper.
	count := 0
	mat.Doc.Walk(func(n *xmltree.Node) bool {
		if n.Label == "patient" {
			count++
		}
		return true
	})
	if count != 3 { // Alice, Dan (promoted sibling), Erin
		t.Errorf("conditional view exposes %d patients, want 3", count)
	}
	// Carol must not appear: her record's diagnosis text would be the
	// only 1980 entry; check no view patient maps to her source node.
	for viewNode, src := range mat.Src {
		if viewNode.Label != "patient" {
			continue
		}
		for _, c := range src.ElementChildren() {
			if c.Label == "pname" && c.TextContent() == "Carol" {
				t.Error("Carol leaked through her failing son Bob")
			}
		}
	}
}

func TestDeriveErrors(t *testing.T) {
	d := hospital.DocDTD()
	if _, err := secview.Derive(d, deny("hospital")); err == nil {
		t.Error("denied root must fail")
	}
	if _, err := secview.Derive(d, deny("nosuchtype")); err == nil {
		t.Error("unknown type must fail")
	}
	p := secview.Policy{"patient": {Action: secview.Cond}}
	if _, err := secview.Derive(d, p); err == nil || !strings.Contains(err.Error(), "filter") {
		t.Errorf("cond without filter must fail, got %v", err)
	}
}

func TestDeriveAllowAllIsIdentityShaped(t *testing.T) {
	d := hospital.DocDTD()
	v, err := secview.Derive(d, secview.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	doc := hospital.SampleDocument()
	mat, err := view.Materialize(v, doc)
	if err != nil {
		t.Fatal(err)
	}
	// Same element multiset as the source (productions are starred, so
	// conformance differs, but no node is hidden or duplicated).
	s1, s2 := doc.ComputeStats(), mat.Doc.ComputeStats()
	if s1.Elements != s2.Elements {
		t.Errorf("allow-all view has %d elements, source %d", s2.Elements, s1.Elements)
	}
}

func TestParsePolicy(t *testing.T) {
	p, err := secview.ParsePolicy(`policy {
		# hide identities
		deny department, name, pname;
		deny doctor;
		allow visit;
		cond patient = visit/treatment/medication/diagnosis/text()='heart disease';
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if p["department"].Action != secview.Deny || p["doctor"].Action != secview.Deny {
		t.Error("deny rules missing")
	}
	if p["visit"].Action != secview.Allow {
		t.Error("allow rule missing")
	}
	if r := p["patient"]; r.Action != secview.Cond || r.Filter == nil {
		t.Error("cond rule missing")
	}
	// Quoted semicolons and comment markers inside filters survive.
	p2, err := secview.ParsePolicy(`policy {
		cond a = b/text()='x; #not a comment';
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if p2["a"].Filter == nil {
		t.Fatal("filter lost")
	}
	if got := p2["a"].Filter.String(); !strings.Contains(got, "x; #not a comment") {
		t.Errorf("filter constant mangled: %q", got)
	}
}

func TestParsePolicyErrors(t *testing.T) {
	cases := []string{
		``,
		`deny a;`,
		`policy deny a;`,
		`policy { deny a; deny a; }`,
		`policy { cond a; }`,
		`policy { cond a = ; }`,
		`policy { cond = b; }`,
		`policy { frobnicate a; }`,
		`policy { deny ,; }`,
	}
	for _, c := range cases {
		if _, err := secview.ParsePolicy(c); err == nil {
			t.Errorf("ParsePolicy(%q): want error", c)
		}
	}
}

func TestPolicyDescendantAxisNotAComment(t *testing.T) {
	// '//' inside a cond filter is the descendant axis, never a comment;
	// truncating it would silently weaken the security filter.
	p, err := secview.ParsePolicy(`policy {
		cond patient = visit//diagnosis/text()='hiv';
	}`)
	if err != nil {
		t.Fatal(err)
	}
	f := p["patient"].Filter
	if f == nil {
		t.Fatal("filter lost")
	}
	if got := f.String(); got != "visit/**/diagnosis/text()='hiv'" {
		t.Errorf("filter mangled: %q", got)
	}
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
