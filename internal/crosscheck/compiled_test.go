package crosscheck_test

// The compiled-pass properties. The one HyPE pass must return the answers
// of an independent oracle on ANY automaton — refeval for queries compiled
// directly, view.Materialize + refeval for rewritings over σ0, and the
// naive MFA product evaluator (mfa.Eval) for rewritings over a
// secview-derived policy view — and every configuration of the pass must
// agree with the sequential default: a one-entry hybrid cache and
// shard-parallel workers on answers AND Stats, the subtree index and a
// call at the tree's root node on answers.

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/qgen"
	"smoqe/internal/refeval"
	"smoqe/internal/rewrite"
	"smoqe/internal/secview"
	"smoqe/internal/view"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

// compiledCase is one document every property of this file evaluates:
// its tree, columnar form, index and preorder map.
type compiledCase struct {
	doc *xmltree.Document
	cd  *colstore.Document
	ix  *hype.Index
	pre map[*xmltree.Node]int
}

func newCompiledCase(doc *xmltree.Document) compiledCase {
	cd := colstore.FromTree(doc)
	return compiledCase{doc: doc, cd: cd, ix: hype.BuildIndex(cd), pre: preorderOf(doc)}
}

// checkCompiled runs m in every configuration over c and fails unless the
// sequential run returns the oracle's answers want and every other
// configuration agrees with it.
func checkCompiled(t testing.TB, tag string, m *mfa.MFA, c compiledCase, want []*xmltree.Node) {
	t.Helper()
	wantIDs := make([]int, len(want))
	for j, n := range want {
		wantIDs[j] = c.pre[n]
	}
	sort.Ints(wantIDs)
	seq := columnarRun(t, m, c.cd, hype.Options{})
	if !sameIDs(seq.IDs, wantIDs) {
		t.Fatalf("%s: answers %v, oracle %v", tag, seq.IDs, wantIDs)
	}
	tiny := hype.New(m)
	tiny.SetCompiledCacheCap(1)
	for name, run := range map[string]func(hype.Options) hype.Result{
		"workers=4":   func(o hype.Options) hype.Result { o.Workers = 4; return columnarRun(t, m, c.cd, o) },
		"cache cap 1": func(o hype.Options) hype.Result { return colRun(t, tiny, c.cd, o) },
	} {
		for _, opts := range []hype.Options{{}, {Index: c.ix}} {
			base := seq
			if opts.Index != nil {
				base = columnarRun(t, m, c.cd, opts)
			}
			got := run(opts)
			if !sameIDs(got.IDs, base.IDs) || got.Stats != base.Stats {
				t.Fatalf("%s: %s (index=%v) diverges: %v %+v, sequential %v %+v",
					tag, name, opts.Index != nil, got.IDs, got.Stats, base.IDs, base.Stats)
			}
		}
	}
	if got := columnarRun(t, m, c.cd, hype.Options{Index: c.ix}).IDs; !sameIDs(got, wantIDs) {
		t.Fatalf("%s: indexed answers %v, oracle %v", tag, got, wantIDs)
	}
	if got := hypeEval(t, hype.New(m), c.doc.Root); !reflect.DeepEqual(ids(got), ids(want)) {
		t.Fatalf("%s: at the root node %v, oracle %v", tag, ids(got), ids(want))
	}
}

// sameIDs compares two answer id lists, nil and empty alike.
func sameIDs(a, b []int) bool { return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b)) }

func ids(ns []*xmltree.Node) []int { return xmltree.IDsOf(ns) }

// colRun evaluates e over cd with opts, failing the test on an error.
func colRun(t testing.TB, e *hype.Engine, cd *colstore.Document, opts hype.Options) hype.Result {
	t.Helper()
	res, err := e.Eval(context.Background(), cd, opts)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	return res
}

// TestCompiledAgreesOnGeneratedQueries: direct compilation over generated
// source queries, against refeval.
func TestCompiledAgreesOnGeneratedQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	c := newCompiledCase(corpus(t, 60, 47))
	g := qgen.New(hospital.DocDTD(), 4242, corpusTexts)
	for i := 0; i < 200; i++ {
		q := g.Query()
		m, err := mfa.Compile(q)
		if err != nil {
			t.Fatalf("query %d %q: compile: %v", i, q, err)
		}
		checkCompiled(t, fmt.Sprintf("query %d %q", i, q), m, c, refeval.Eval(q, c.doc.Root))
	}
}

// TestCompiledAgreesOnViewRewritings: rewritten automata over σ0 — larger
// NFAs with data-test AFAs, the Theorem 5.1 shape the hybrid cache must
// handle — against the materialized view queried by refeval.
func TestCompiledAgreesOnViewRewritings(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	v := hospital.Sigma0()
	c := newCompiledCase(corpus(t, 50, 53))
	mat, err := view.Materialize(v, c.doc)
	if err != nil {
		t.Fatal(err)
	}
	g := qgen.New(hospital.ViewDTD(), 777, []string{"heart disease", "flu", "lung disease"})
	for i := 0; i < 150; i++ {
		q := g.Query()
		m, err := rewrite.Rewrite(v, q)
		if err != nil {
			t.Fatalf("view query %d %q: rewrite: %v", i, q, err)
		}
		checkCompiled(t, fmt.Sprintf("view query %d %q", i, q), m, c, mat.SourceOf(refeval.Eval(q, mat.Doc.Root)))
	}
}

// TestCompiledAgreesOnSecviewRewritings: automata rewritten over a
// policy-derived (secview) security view — recursive view DTD, promoted
// chains, the automata with the densest ε-structure in the repo — against
// the naive MFA product evaluator.
func TestCompiledAgreesOnSecviewRewritings(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	p := secview.Policy{}
	for _, ty := range []string{
		"department", "name", "pname", "address", "street", "city", "zip",
		"treatment", "test", "medication", "type",
		"doctor", "dname", "specialty", "date", "sibling",
	} {
		p[ty] = secview.Rule{Action: secview.Deny}
	}
	v, err := secview.Derive(hospital.DocDTD(), p)
	if err != nil {
		t.Fatal(err)
	}
	c := newCompiledCase(corpus(t, 40, 59))
	g := qgen.New(v.Target, 313, corpusTexts)
	for i := 0; i < 120; i++ {
		q := g.Query()
		m, err := rewrite.Rewrite(v, q)
		if err != nil {
			t.Fatalf("secview query %d %q: rewrite: %v", i, q, err)
		}
		checkCompiled(t, fmt.Sprintf("secview query %d %q", i, q), m, c, mfa.Eval(m, c.doc.Root))
	}
}

// TestCompiledAgreesUnderTinyCache replays a slice of the generated-query
// property with a cache cap of 1 on one long-lived clone, so eviction and
// the NFA-simulation fallback carry over from query to query: answers must
// stay refeval's and Stats the default cache's.
func TestCompiledAgreesUnderTinyCache(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	c := newCompiledCase(corpus(t, 40, 61))
	g := qgen.New(hospital.DocDTD(), 6006, corpusTexts)
	for i := 0; i < 60; i++ {
		q := g.Query()
		m, err := mfa.Compile(q)
		if err != nil {
			t.Fatalf("query %d %q: compile: %v", i, q, err)
		}
		want := columnarRun(t, m, c.cd, hype.Options{})
		tiny := hype.New(m)
		tiny.SetCompiledCacheCap(1)
		for run := 0; run < 2; run++ {
			got := colRun(t, tiny, c.cd, hype.Options{})
			if !sameIDs(got.IDs, want.IDs) || got.Stats != want.Stats {
				t.Fatalf("query %d %q run %d: cap-1 diverges (%v/%v, %+v vs %+v)",
					i, q, run, got.IDs, want.IDs, got.Stats, want.Stats)
			}
		}
		if ref := ids(refeval.Eval(q, c.doc.Root)); !sameIDs(want.IDs, ref) {
			t.Fatalf("query %d %q: answers %v, reference %v", i, q, want.IDs, ref)
		}
	}
}

// FuzzCompiledAgreesWithInterpreted is the fuzz form: for any document and
// query the parsers accept, the compiled pass must agree with the
// interpreting oracles — refeval's set semantics and mfa.Eval's product
// semantics — and its configurations with each other (checkCompiled), and
// nothing may panic.
func FuzzCompiledAgreesWithInterpreted(f *testing.F) {
	seeds := []struct{ xml, query string }{
		{"<r><a><b>x</b></a><a/></r>", "a/b"},
		{"<r><a><a><a/></a></a></r>", "a*/a"},
		{"<r><a>x</a><b>y</b></r>", "*[text()='x']"},
		{"<r><a><b/></a><a><c/></a></r>", "a[not(b)]"},
		{"<r><a/><a/><a/></r>", "a[position()=2]"},
		{"<r><a><b><a/></b></a></r>", "//a"},
		{"<r><a/></r>", "(a|b)*/."},
		{"<r><p><q>v</q></p></r>", "p[q/text()='v' and not(z)]"},
	}
	for _, s := range seeds {
		f.Add(s.xml, s.query)
	}
	lim := xmltree.ParseLimits{MaxDepth: 64, MaxNodes: 4096, MaxBytes: 1 << 16}
	f.Fuzz(func(t *testing.T, xmlSrc, querySrc string) {
		if len(querySrc) > 256 {
			return
		}
		doc, err := xmltree.ParseStringWithLimits(xmlSrc, lim)
		if err != nil {
			return
		}
		q, err := xpath.Parse(querySrc)
		if err != nil {
			return
		}
		m, err := mfa.Compile(q)
		if err != nil {
			return
		}
		want := refeval.Eval(q, doc.Root)
		if got := mfa.Eval(m, doc.Root); !reflect.DeepEqual(ids(got), ids(want)) {
			t.Fatalf("query %q on %q: mfa.Eval %v, refeval %v", querySrc, xmlSrc, ids(got), ids(want))
		}
		checkCompiled(t, fmt.Sprintf("query %q on %q", querySrc, xmlSrc), m, newCompiledCase(doc), want)
	})
}
