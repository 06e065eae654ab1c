package crosscheck_test

// The compiled-layer equivalence properties: the lazy subset-automaton /
// bitset-AFA evaluation is a pure replay of the interpreted decision
// procedure, so on ANY automaton — compiled directly, rewritten over a
// hand-written view, or rewritten over a secview-derived policy view — the
// compiled pointer pass and the columnar pass must return byte-identical
// answers AND identical Stats to the interpreted pointer pass.

import (
	"fmt"
	"sort"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/qgen"
	"smoqe/internal/rewrite"
	"smoqe/internal/secview"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

// checkCompiled runs m compiled on doc (and its columnar form) and fails on
// any divergence in answers or Stats from the interpreted pointer pass.
func checkCompiled(t *testing.T, tag string, m *mfa.MFA, doc *xmltree.Document, cd *colstore.Document) {
	t.Helper()
	interp := hype.New(m)
	interp.SetCompiled(false)
	want := hypeRun(t, interp, doc.Root, hype.Options{})
	got := hypeRun(t, hype.New(m), doc.Root, hype.Options{})
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("%s: compiled %d nodes, interpreted %d", tag, len(got.Nodes), len(want.Nodes))
	}
	for j := range got.Nodes {
		if got.Nodes[j] != want.Nodes[j] {
			t.Fatalf("%s: node %d differs: %s vs %s", tag, j, got.Nodes[j].Path(), want.Nodes[j].Path())
		}
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: compiled Stats %+v, interpreted %+v", tag, got.Stats, want.Stats)
	}
	if cd == nil {
		return
	}
	pre := preorderOf(doc)
	wantIDs := make([]int, len(want.Nodes))
	for j, n := range want.Nodes {
		wantIDs[j] = pre[n]
	}
	sort.Ints(wantIDs)
	col := columnarRun(t, m, cd)
	if len(col.IDs) != len(wantIDs) {
		t.Fatalf("%s: columnar %d ids, interpreted pointer %d", tag, len(col.IDs), len(wantIDs))
	}
	for j := range col.IDs {
		if col.IDs[j] != wantIDs[j] {
			t.Fatalf("%s: columnar id %d differs: %d vs %d", tag, j, col.IDs[j], wantIDs[j])
		}
	}
	if col.Stats != want.Stats {
		t.Fatalf("%s: columnar Stats %+v, interpreted pointer %+v", tag, col.Stats, want.Stats)
	}
}

// TestCompiledAgreesOnGeneratedQueries: direct compilation over generated
// source queries.
func TestCompiledAgreesOnGeneratedQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	doc := corpus(t, 60, 47)
	cd := colstore.FromTree(doc)
	g := qgen.New(hospital.DocDTD(), 4242, corpusTexts)
	for i := 0; i < 200; i++ {
		q := g.Query()
		m, err := mfa.Compile(q)
		if err != nil {
			t.Fatalf("query %d %q: compile: %v", i, q, err)
		}
		checkCompiled(t, fmt.Sprintf("query %d %q", i, q), m, doc, cd)
	}
}

// TestCompiledAgreesOnViewRewritings: rewritten automata over σ0 — larger
// NFAs with data-test AFAs, the Theorem 5.1 shape the subset cache must
// handle.
func TestCompiledAgreesOnViewRewritings(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	v := hospital.Sigma0()
	doc := corpus(t, 50, 53)
	cd := colstore.FromTree(doc)
	g := qgen.New(hospital.ViewDTD(), 777, []string{"heart disease", "flu", "lung disease"})
	for i := 0; i < 150; i++ {
		q := g.Query()
		m, err := rewrite.Rewrite(v, q)
		if err != nil {
			t.Fatalf("view query %d %q: rewrite: %v", i, q, err)
		}
		checkCompiled(t, fmt.Sprintf("view query %d %q", i, q), m, doc, cd)
	}
}

// TestCompiledAgreesOnSecviewRewritings: automata rewritten over a
// policy-derived (secview) security view — recursive view DTD, promoted
// chains, the automata with the densest ε-structure in the repo.
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
	doc := corpus(t, 40, 59)
	cd := colstore.FromTree(doc)
	g := qgen.New(v.Target, 313, corpusTexts)
	for i := 0; i < 120; i++ {
		q := g.Query()
		m, err := rewrite.Rewrite(v, q)
		if err != nil {
			t.Fatalf("secview query %d %q: rewrite: %v", i, q, err)
		}
		checkCompiled(t, fmt.Sprintf("secview query %d %q", i, q), m, doc, cd)
	}
}

// TestCompiledAgreesUnderTinyCache replays a slice of the generated-query
// property with a cache cap of 1, so eviction and the NFA-simulation
// fallback are exercised against generated (not hand-picked) automata.
func TestCompiledAgreesUnderTinyCache(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	doc := corpus(t, 40, 61)
	g := qgen.New(hospital.DocDTD(), 6006, corpusTexts)
	for i := 0; i < 60; i++ {
		q := g.Query()
		m, err := mfa.Compile(q)
		if err != nil {
			t.Fatalf("query %d %q: compile: %v", i, q, err)
		}
		interp := hype.New(m)
		interp.SetCompiled(false)
		want := hypeRun(t, interp, doc.Root, hype.Options{})
		tiny := hype.New(m)
		tiny.SetCompiledCacheCap(1)
		got := hypeRun(t, tiny, doc.Root, hype.Options{})
		gotNodes, gotStats, wantNodes, wantStats := got.Nodes, got.Stats, want.Nodes, want.Stats
		if len(gotNodes) != len(wantNodes) || gotStats != wantStats {
			t.Fatalf("query %d %q: cap-1 compiled diverges (%d/%d nodes, %+v vs %+v)",
				i, q, len(gotNodes), len(wantNodes), gotStats, wantStats)
		}
		for j := range gotNodes {
			if gotNodes[j] != wantNodes[j] {
				t.Fatalf("query %d %q: cap-1 node %d differs", i, q, j)
			}
		}
	}
}

// FuzzCompiledAgreesWithInterpreted is the fuzz form: for any document and
// query the parsers accept, the compiled evaluation must agree with the
// interpreted one on answers and Stats — and neither may panic.
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
		interp := hype.New(m)
		interp.SetCompiled(false)
		want := hypeRun(t, interp, doc.Root, hype.Options{})
		got := hypeRun(t, hype.New(m), doc.Root, hype.Options{})
		gotNodes, gotStats, wantNodes, wantStats := got.Nodes, got.Stats, want.Nodes, want.Stats
		if len(gotNodes) != len(wantNodes) {
			t.Fatalf("query %q on %q: compiled %d nodes, interpreted %d",
				querySrc, xmlSrc, len(gotNodes), len(wantNodes))
		}
		for i := range gotNodes {
			if gotNodes[i] != wantNodes[i] {
				t.Fatalf("query %q on %q: node %d differs", querySrc, xmlSrc, i)
			}
		}
		if gotStats != wantStats {
			t.Fatalf("query %q on %q: compiled Stats %+v, interpreted %+v",
				querySrc, xmlSrc, gotStats, wantStats)
		}
	})
}
