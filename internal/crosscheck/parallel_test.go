package crosscheck_test

import (
	"context"
	"testing"

	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/qgen"
)

// TestParallelAgreesOnGeneratedQueries is the shard-parallel equivalence
// property: a parallel Eval must return the exact node sequence AND the exact
// merged Stats of the sequential evaluator, for plain HyPE and for OptHyPE
// with both index flavours, across generated queries and several worker
// counts. Any divergence — a reordered hit, a miscounted skip, a pruning
// decision taken differently inside a shard — fails here.
func TestParallelAgreesOnGeneratedQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	doc := corpus(t, 60, 17)
	idx := hype.BuildIndex(doc, false)
	idxC := hype.BuildIndex(doc, true)
	g := qgen.New(hospital.DocDTD(), 4321, corpusTexts)
	engines := []struct {
		name string
		mk   func(m *mfa.MFA) *hype.Engine
	}{
		{"HyPE", func(m *mfa.MFA) *hype.Engine { return hype.New(m) }},
		{"OptHyPE", func(m *mfa.MFA) *hype.Engine { return hype.NewOpt(m, idx) }},
		{"OptHyPE-C", func(m *mfa.MFA) *hype.Engine { return hype.NewOpt(m, idxC) }},
	}
	ctx := context.Background()
	nonEmpty := 0
	for i := 0; i < 120; i++ {
		q := g.Query()
		src := q.String()
		m, err := mfa.Compile(q)
		if err != nil {
			t.Fatalf("query %d %q: compile: %v", i, src, err)
		}
		for _, eng := range engines {
			seq := hypeRun(t, eng.mk(m), doc.Root, hype.Options{})
			want, wantSt := seq.Nodes, seq.Stats
			if len(want) > 0 {
				nonEmpty++
			}
			for _, workers := range []int{1, 2, 4} {
				pst, err := eng.mk(m).Eval(ctx, doc.Root, hype.Options{Workers: workers})
				if err != nil {
					t.Fatalf("query %d %q: %s workers=%d: %v", i, src, eng.name, workers, err)
				}
				got := pst.Nodes
				if len(got) != len(want) {
					t.Fatalf("query %d %q: %s workers=%d returned %d nodes, sequential %d",
						i, src, eng.name, workers, len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("query %d %q: %s workers=%d result %d differs",
							i, src, eng.name, workers, j)
					}
				}
				if pst.Stats != wantSt {
					t.Fatalf("query %d %q: %s workers=%d stats diverge:\nparallel:   %+v\nsequential: %+v",
						i, src, eng.name, workers, pst.Stats, wantSt)
				}
			}
		}
	}
	if nonEmpty < 12 {
		t.Errorf("only %d nonempty engine results across 120 queries; generator too weak", nonEmpty)
	}
}
