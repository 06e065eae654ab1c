package crosscheck_test

import (
	"reflect"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/qgen"
)

// TestParallelAgreesOnGeneratedQueries is the shard-parallel equivalence
// property: a parallel Eval must return the exact answer sequence AND the
// exact merged Stats of the sequential evaluator, for plain HyPE and for
// OptHyPE-C, across generated queries and several worker counts. Any
// divergence — a reordered hit, a miscounted skip, a pruning decision
// taken differently inside a shard — fails here.
func TestParallelAgreesOnGeneratedQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	cd := colstore.FromTree(corpus(t, 60, 17))
	ix := hype.BuildIndex(cd)
	g := qgen.New(hospital.DocDTD(), 4321, corpusTexts)
	nonEmpty := 0
	for i := 0; i < 120; i++ {
		q := g.Query()
		src := q.String()
		m, err := mfa.Compile(q)
		if err != nil {
			t.Fatalf("query %d %q: compile: %v", i, src, err)
		}
		for _, eng := range []struct {
			name string
			ix   *hype.Index
		}{{"HyPE", nil}, {"OptHyPE-C", ix}} {
			seq := columnarRun(t, m, cd, hype.Options{Index: eng.ix})
			if len(seq.IDs) > 0 {
				nonEmpty++
			}
			for _, workers := range []int{1, 2, 4} {
				pst := columnarRun(t, m, cd, hype.Options{Index: eng.ix, Workers: workers})
				if !reflect.DeepEqual(pst.IDs, seq.IDs) {
					t.Fatalf("query %d %q: %s workers=%d returned %v, sequential %v",
						i, src, eng.name, workers, pst.IDs, seq.IDs)
				}
				if pst.Stats != seq.Stats {
					t.Fatalf("query %d %q: %s workers=%d stats diverge:\nparallel:   %+v\nsequential: %+v",
						i, src, eng.name, workers, pst.Stats, seq.Stats)
				}
			}
		}
	}
	if nonEmpty < 12 {
		t.Errorf("only %d nonempty engine results across 120 queries; generator too weak", nonEmpty)
	}
}
