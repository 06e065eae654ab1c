package crosscheck_test

import (
	"testing"

	"smoqe/internal/datagen"
	"smoqe/internal/dtd"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/qgen"
	"smoqe/internal/refeval"
	"smoqe/internal/rewrite"
	"smoqe/internal/view"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

// viewShapes are view DTDs of varying character: flat, recursive, with
// choices, with relabeling.
var viewShapes = []string{
	`dtd v1 { root r; r -> item*; item -> #text; }`,
	`dtd v2 { root r; r -> grp*; grp -> grp*, leaf*; leaf -> #text; }`, // recursive
	`dtd v3 { root r; r -> a*; a -> b | c; b -> (); c -> #text; }`,     // choice
	`dtd v4 { root r; r -> x*; x -> y*; y -> z*; z -> #text; }`,        // deep chain
}

// TestRandomViewsRewriteExactly generates random view annotations over the
// hospital source DTD for several view-DTD shapes and checks the rewriting
// contract Q(σ(T)) = M(T) for random view queries. Views whose expansion
// does not terminate on a document are skipped (Materialize detects them).
func TestRandomViewsRewriteExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	src := hospital.DocDTD()
	cfg := datagen.DefaultConfig(25)
	cfg.HeartFrac = 0.3
	doc := datagen.Generate(cfg)

	annGen := qgen.New(src, 77, []string{"heart disease", "flu", "ecg"})
	annGen.MaxDepth = 2
	srcTypes := src.Labels()

	checked, skipped := 0, 0
	for shapeIdx, shape := range viewShapes {
		tgt := dtd.MustParse(shape)
		qGen := qgen.New(tgt, int64(100+shapeIdx), []string{"heart disease", "flu", "ecg", "cardiology"})
		for attempt := 0; attempt < 10; attempt++ {
			v := &view.View{
				Name:   "rnd",
				Source: src,
				Target: tgt,
				Ann:    map[view.Edge]xpath.Path{},
			}
			for a := range tgt.Reachable() {
				for _, b := range tgt.ChildTypes(a) {
					var q xpath.Path
					if a == tgt.Root {
						q = annGen.QueryFrom(src.Root)
					} else {
						q = annGen.QueryFrom(srcTypes...)
					}
					v.Ann[view.Edge{Parent: a, Child: b}] = q
				}
			}
			if err := v.Check(); err != nil {
				t.Fatalf("generated view invalid: %v", err)
			}
			mat, err := view.Materialize(v, doc)
			if err != nil {
				skipped++ // non-terminating expansion; legitimate skip
				continue
			}
			for qi := 0; qi < 5; qi++ {
				q := qGen.Query()
				want := mat.SourceOf(refeval.Eval(q, mat.Doc.Root))
				m, err := rewrite.Rewrite(v, q)
				if err != nil {
					t.Fatalf("shape %d attempt %d: rewrite %q: %v", shapeIdx, attempt, q, err)
				}
				for name, got := range map[string][]*xmltree.Node{
					"mfa":  mfa.Eval(m, doc.Root),
					"hype": hypeEval(t, hype.New(m), doc.Root),
				} {
					if len(got) != len(want) {
						t.Fatalf("shape %d attempt %d query %q (%s): got %d want %d\nview:\n%s",
							shapeIdx, attempt, q, name, len(got), len(want), v)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("shape %d query %q (%s): node %d differs", shapeIdx, q, name, i)
						}
					}
				}
				checked++
			}
		}
	}
	if checked < 50 {
		t.Errorf("only %d random-view checks ran (%d views skipped as non-terminating)", checked, skipped)
	}
}

// TestMaterializeAlwaysConforms: σ0(T) conforms to the view DTD for every
// generated document (the materializer respects the view schema whenever
// the annotations produce cardinality-correct children, which σ0's do).
func TestMaterializeAlwaysConforms(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	v := hospital.Sigma0()
	dv := hospital.ViewDTD()
	for seed := int64(1); seed <= 6; seed++ {
		cfg := datagen.DefaultConfig(40)
		cfg.Seed = seed
		cfg.HeartFrac = 0.2
		doc := datagen.Generate(cfg)
		mat, err := view.Materialize(v, doc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := dv.CheckDocument(mat.Doc); err != nil {
			t.Errorf("seed %d: view does not conform: %v", seed, err)
		}
	}
}
