package hype

import (
	"context"
	"reflect"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/mfa"
	"smoqe/internal/qgen"
	"smoqe/internal/xpath"
)

// SourceQueries are the source-side queries of the table tests and of the
// golden pin. They live in the package's own tests so that internal tests
// share them; the external tests read them as sourceQueries.
var SourceQueries = []string{
	".",
	"department",
	"department/patient",
	"department/patient/pname",
	"*",
	"**",
	"//diagnosis",
	"//patient",
	"department/patient[visit]",
	"department/patient[visit/treatment/medication/diagnosis/text()='heart disease']",
	"department/patient[not(visit)]",
	"department/patient[visit and parent]",
	"department/patient[visit or parent]",
	"department/patient[visit/treatment/test or visit/treatment/medication/diagnosis/text()='flu']",
	"department/patient/(parent/patient)*",
	"department/patient/(parent/patient)*[visit/treatment/medication/diagnosis/text()='heart disease']/pname",
	"department/patient/(parent/patient[visit/treatment/medication])*/pname",
	"department/patient[(parent/patient)*/visit/treatment/medication/diagnosis/text()='heart disease']/pname",
	"department/patient[sibling/patient[visit/treatment/medication/diagnosis/text()='heart disease']]/pname",
	"department/patient[parent/patient[not(visit)]]",
	"department/*/street | department/patient/pname",
	"department/patient[address[city/text()='Edinburgh']]",
	"department/patient[visit[date/text()='2006-07-01']][visit/treatment/medication]",
	"department/patient[visit/position()=1]",
	hospital.QExample21,
	hospital.XPA, hospital.XPB, hospital.XPC,
	hospital.RXA, hospital.RXB, hospital.RXC,
}

// TestGuardFreeShortcutMatchesDAG: an automaton without a guarded state
// counts its cans DAG instead of storing it and returns every candidate.
// Forcing the DAG path on the same automaton must give the same answers
// and Stats: for the filter-free source queries and generated guard-free
// queries, over the sample and a generated document, with and without the
// index, sequentially and shard-parallel.
func TestGuardFreeShortcutMatchesDAG(t *testing.T) {
	var queries []xpath.Path
	guardFree := func(q xpath.Path) bool { return !New(mfa.MustCompile(q)).guarded }
	for _, src := range SourceQueries {
		if q := xpath.MustParse(src); guardFree(q) {
			queries = append(queries, q)
		}
	}
	if len(queries) < 10 {
		t.Fatalf("%d guard-free source queries, want at least 10", len(queries))
	}
	gen := qgen.New(hospital.DocDTD(), 18, []string{"heart disease", "flu"})
	for generated := 0; generated < 100; {
		if q := gen.Query(); guardFree(q) {
			queries = append(queries, q)
			generated++
		}
	}
	ctx := context.Background()
	for _, doc := range []*colstore.Document{
		colstore.FromTree(hospital.SampleDocument()),
		colstore.FromTree(datagen.Generate(datagen.DefaultConfig(150))),
	} {
		ix := BuildIndex(doc)
		for _, q := range queries {
			m := mfa.MustCompile(q)
			for _, opts := range []Options{{}, {Index: ix}, {Workers: 2}, {Index: ix, Workers: 2}} {
				short := New(m)
				dag := New(m)
				dag.program.guarded = true // dag owns its program: nothing else shares it
				want, err := dag.Eval(ctx, doc, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := short.Eval(ctx, doc, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.IDs, want.IDs) || !reflect.DeepEqual(got.TaggedIDs, want.TaggedIDs) || got.Stats != want.Stats {
					t.Errorf("%s, index=%v workers=%d: shortcut %v %+v, DAG %v %+v",
						q, opts.Index != nil, opts.Workers, got.IDs, got.Stats, want.IDs, want.Stats)
				}
			}
		}
	}
}

// TestRunBufferRetentionBound: a clone keeps the buffers of a run that
// fits maxRetainedBytes for its next run and drops those of a run that
// outgrew the bound. The DAG path of //diagnosis over 2,000 patients
// stores about 400k edges, well past the bound.
func TestRunBufferRetentionBound(t *testing.T) {
	small := colstore.FromTree(hospital.SampleDocument())
	big := colstore.FromTree(datagen.Generate(datagen.DefaultConfig(2000)))
	e := New(mfa.MustCompile(xpath.MustParse("//diagnosis")))
	e.program.guarded = true // e owns its program: nothing else shares it
	for _, step := range []struct {
		cd   *colstore.Document
		kept bool
	}{{small, true}, {big, false}, {small, true}} {
		evalResult(e, step.cd, false)
		if kept := e.bufs != nil; kept != step.kept {
			t.Fatalf("after a run over %d nodes: buffers kept = %v, want %v", step.cd.NumNodes(), kept, step.kept)
		}
	}
}
