package crosscheck_test

// FuzzHypeAgreesWithReference is the fuzz form of the engine-equivalence
// property: for any XML document and any query the parsers accept, HyPE
// must return exactly the reference evaluator's answer — and neither side
// may panic. Parse limits keep adversarial inputs (deep nesting, huge
// expansions) from turning the fuzzer into a resource test.

import (
	"testing"

	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/refeval"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

func FuzzHypeAgreesWithReference(f *testing.F) {
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
		got := hypeEval(t, hype.New(m), doc.Root)
		if len(got) != len(want) {
			t.Fatalf("query %q on %q: HyPE %d nodes, reference %d", querySrc, xmlSrc, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %q on %q: result %d differs", querySrc, xmlSrc, i)
			}
		}
	})
}
