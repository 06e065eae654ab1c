package hype_test

import (
	"testing"

	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/refeval"
	"smoqe/internal/rewrite"
	"smoqe/internal/xpath"
)

// TestBatchEvaluation: merging k query automata and running one HyPE pass
// must return exactly the per-query answer sets.
func TestBatchEvaluation(t *testing.T) {
	doc := hospital.SampleDocument()
	queries := []string{
		hospital.XPA,
		hospital.XPB,
		hospital.RXC,
		"//diagnosis",
		"department/patient[not(visit)]",
		"nosuchlabel",
	}
	var ms []*mfa.MFA
	for _, src := range queries {
		ms = append(ms, mfa.MustCompile(xpath.MustParse(src)))
	}
	merged, err := mfa.Merge(ms)
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumTags() != len(queries) {
		t.Fatalf("NumTags = %d, want %d", merged.NumTags(), len(queries))
	}
	results := eval(t, hype.New(merged), doc.Root, hype.Options{}).TaggedIDs
	if len(results) != merged.NumTags() {
		t.Fatalf("got %d buckets, want %d", len(results), merged.NumTags())
	}
	for i, src := range queries {
		if i >= len(results) {
			// A short result slice IS the dropped-bucket bug this test
			// exists to catch — fail loudly, don't skip the tail.
			t.Fatalf("results truncated: bucket %d (query %q) missing, got %d buckets for %d queries",
				i, src, len(results), len(queries))
		}
		want := ids(refeval.Eval(xpath.MustParse(src), doc.Root))
		got := results[i]
		if len(got) != len(want) {
			t.Errorf("query %d %q: batch %d vs direct %d", i, src, len(got), len(want))
			continue
		}
		for j := range got {
			if got[j] != want[j] {
				t.Errorf("query %d %q: node %d differs", i, src, j)
			}
		}
	}
}

// TestBatchRewrittenViews: the access-control scenario — several user
// groups' view queries rewritten and answered in one pass over the source.
func TestBatchRewrittenViews(t *testing.T) {
	v := hospital.Sigma0()
	doc := datagen.Generate(datagen.DefaultConfig(60))
	queries := []string{
		"patient",
		hospital.QExample11,
		"patient/record/diagnosis",
		"(patient/parent)*/patient[record/empty]",
	}
	var ms []*mfa.MFA
	for _, src := range queries {
		ms = append(ms, rewrite.MustRewrite(v, xpath.MustParse(src)))
	}
	merged, err := mfa.Merge(ms)
	if err != nil {
		t.Fatal(err)
	}
	results := eval(t, hype.New(merged), doc.Root, hype.Options{}).TaggedIDs
	for i, src := range queries {
		want := eval(t, hype.New(ms[i]), doc.Root, hype.Options{}).IDs
		got := results[i]
		if len(got) != len(want) {
			t.Errorf("query %d %q: batch %d vs single %d", i, src, len(got), len(want))
			continue
		}
		for j := range got {
			if got[j] != want[j] {
				t.Errorf("query %d %q: node %d differs", i, src, j)
			}
		}
	}
}

// TestBatchWithIndex: batch evaluation composes with OptHyPE.
func TestBatchWithIndex(t *testing.T) {
	doc := hospital.SampleDocument()
	ms := []*mfa.MFA{
		mfa.MustCompile(xpath.MustParse("department/patient/pname")),
		mfa.MustCompile(xpath.MustParse("//zip")),
	}
	merged, err := mfa.Merge(ms)
	if err != nil {
		t.Fatal(err)
	}
	results := evalIndexed(t, hype.New(merged), doc.Root).TaggedIDs
	for i, m := range ms {
		want := eval(t, hype.New(m), doc.Root, hype.Options{}).IDs
		if len(results[i]) != len(want) {
			t.Errorf("query %d: %d vs %d", i, len(results[i]), len(want))
		}
	}
}

// TestMergeErrors covers the error paths.
func TestMergeErrors(t *testing.T) {
	if _, err := mfa.Merge(nil); err == nil {
		t.Error("Merge of nothing must fail")
	}
	bad := &mfa.MFA{Start: 5}
	if _, err := mfa.Merge([]*mfa.MFA{bad}); err == nil {
		t.Error("Merge of an invalid automaton must fail")
	}
}
