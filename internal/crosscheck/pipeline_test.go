package crosscheck_test

// Kitchen-sink integration: every feature chained — rewrite over a view,
// merge into a batch automaton, serialize, deserialize, evaluate with the
// indexed engine in one tagged pass — must equal the per-query baseline.

import (
	"bytes"
	"testing"

	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/refeval"
	"smoqe/internal/rewrite"
	"smoqe/internal/view"
	"smoqe/internal/xpath"
)

func TestFullPipeline(t *testing.T) {
	v := hospital.Sigma0()
	cfg := datagen.DefaultConfig(80)
	cfg.HeartFrac = 0.25
	doc := datagen.Generate(cfg)
	mat, err := view.Materialize(v, doc)
	if err != nil {
		t.Fatal(err)
	}

	queries := []string{
		"patient",
		hospital.QExample11,
		hospital.QExample41,
		"patient/record/diagnosis",
		"patient[record/empty]",
	}
	var ms []*mfa.MFA
	var want [][]int
	for _, src := range queries {
		q := xpath.MustParse(src)
		m, err := rewrite.Rewrite(v, q)
		if err != nil {
			t.Fatalf("rewrite %q: %v", src, err)
		}
		ms = append(ms, m)
		srcNodes := mat.SourceOf(refeval.Eval(q, mat.Doc.Root))
		ids := make([]int, len(srcNodes))
		for i, n := range srcNodes {
			ids[i] = n.ID
		}
		want = append(want, ids)
	}

	merged, err := mfa.Merge(ms)
	if err != nil {
		t.Fatal(err)
	}

	// Round-trip the batch automaton through the binary format.
	var buf bytes.Buffer
	if err := merged.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := mfa.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}

	res, _ := hypeRun(t, hype.New(loaded), doc.Root, true, hype.Options{})
	results := res.TaggedIDs
	if len(results) != len(queries) {
		t.Fatalf("buckets = %d, want %d", len(results), len(queries))
	}
	for i, src := range queries {
		got := results[i]
		if len(got) != len(want[i]) {
			t.Errorf("query %q: %d answers, want %d", src, len(got), len(want[i]))
			continue
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Errorf("query %q: answer %d: node %d vs %d", src, j, got[j], want[i][j])
			}
		}
	}
}
