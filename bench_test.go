// Benchmarks regenerating the paper's evaluation (§7), one benchmark per
// figure panel plus the in-text experiments and ablations. The corpus is a
// generated hospital document (see internal/datagen); sizes are reduced
// from the paper's 7–70 MB so `go test -bench .` stays fast — cmd/benchfig
// sweeps the full 10-step size range and the paper-scale -unit 10000.
//
// Run with:
//
//	go test -bench . -benchmem
package smoqe_test

import (
	"fmt"
	"testing"

	"smoqe"
	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/rewrite"
	"smoqe/internal/twopass"
	"smoqe/internal/view"
	"smoqe/internal/xpath"
	"smoqe/internal/xqsim"
)

// benchPatients is the corpus size for the fixed-size benchmarks
// (≈ 2 MB, ≈ 100k element nodes).
const benchPatients = 2000

var benchDocCache = map[int]*smoqe.Document{}

func benchDoc(b *testing.B, patients int) *smoqe.Document {
	b.Helper()
	if d, ok := benchDocCache[patients]; ok {
		return d
	}
	d := datagen.Generate(datagen.DefaultConfig(patients))
	benchDocCache[patients] = d
	return d
}

// engines benchmarked against each other in Fig. 8 (XPath) and Fig. 9
// (regular XPath).
func benchEngines(b *testing.B, qsrc string, baseline bool) {
	doc := benchDoc(b, benchPatients)
	q := xpath.MustParse(qsrc)
	m, err := smoqe.Compile(q)
	if err != nil {
		b.Fatal(err)
	}
	if baseline {
		b.Run("TwoPass", func(b *testing.B) {
			e := twopass.MustNew(q)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Eval(doc.Root)
			}
		})
	}
	// HyPE runs on the columnar form, built once outside the timed loop.
	cd := smoqe.BuildColumnar(doc)
	b.Run("HyPE", func(b *testing.B) {
		e := smoqe.PrepareMFA(m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			evalWith(b, e, nil, smoqe.EvalOptions{Columnar: cd})
		}
	})
	b.Run("OptHyPE-C", func(b *testing.B) {
		e, opts := smoqe.PrepareMFA(m), smoqe.EvalOptions{Columnar: cd, Index: smoqe.BuildIndex(cd)}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			evalWith(b, e, nil, opts)
		}
	})
}

// Fig. 8 — XPath query evaluation times (vs the JAXP-class baseline).

func BenchmarkFig8aLargeFilter(b *testing.B)  { benchEngines(b, hospital.XPA, true) }
func BenchmarkFig8bConjunctions(b *testing.B) { benchEngines(b, hospital.XPB, true) }
func BenchmarkFig8cDisjunctions(b *testing.B) { benchEngines(b, hospital.XPC, true) }

// Fig. 9 — regular XPath query evaluation times (HyPE variants).

func BenchmarkFig9aStarOutsideFilter(b *testing.B) { benchEngines(b, hospital.RXA, false) }
func BenchmarkFig9bFilterInsideStar(b *testing.B)  { benchEngines(b, hospital.RXB, false) }
func BenchmarkFig9cStarInFilter(b *testing.B)      { benchEngines(b, hospital.RXC, false) }

// BenchmarkGalaxStandin compares HyPE with the XQuery-translation stand-in
// on the regular XPath workload (§7 in-text Galax discussion).
func BenchmarkGalaxStandin(b *testing.B) {
	doc := benchDoc(b, benchPatients)
	for _, nq := range hospital.RegularXPathQueries() {
		b.Run(nq.Name+"/standin", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				xqsim.Eval(nq.Query, doc.Root)
			}
		})
		m, err := smoqe.Compile(nq.Query)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(nq.Name+"/HyPE", func(b *testing.B) {
			e := smoqe.PrepareMFA(m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				evalWith(b, e, doc.Root, smoqe.EvalOptions{})
			}
		})
	}
}

// BenchmarkLinearScaling demonstrates Theorem 6.1/6.2: HyPE evaluation time
// grows linearly with |T| (three sizes, same query).
func BenchmarkLinearScaling(b *testing.B) {
	q := xpath.MustParse(hospital.RXC)
	m, err := smoqe.Compile(q)
	if err != nil {
		b.Fatal(err)
	}
	for _, patients := range []int{1000, 2000, 4000} {
		doc := benchDoc(b, patients)
		b.Run(fmt.Sprintf("patients=%d", patients), func(b *testing.B) {
			e := smoqe.PrepareMFA(m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				evalWith(b, e, doc.Root, smoqe.EvalOptions{})
			}
		})
	}
}

// BenchmarkRewrite measures Algorithm rewrite itself (Theorem 5.1: time
// O(|Q|²|σ||D_V|²)) on growing queries over σ0.
func BenchmarkRewrite(b *testing.B) {
	v := hospital.Sigma0()
	const step = "patient[record/diagnosis/text()='heart disease']"
	for _, k := range []int{1, 2, 4, 8} {
		qsrc := step
		for i := 1; i < k; i++ {
			qsrc += "/parent/" + step
		}
		q := xpath.MustParse(qsrc)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rewrite.Rewrite(v, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnswerOnView measures the full pipeline the paper proposes
// (rewrite once, evaluate with HyPE) against the materialize-then-query
// alternative it argues against.
func BenchmarkAnswerOnView(b *testing.B) {
	v := hospital.Sigma0()
	doc := benchDoc(b, benchPatients)
	q := xpath.MustParse(hospital.QExample41)
	m, err := smoqe.Rewrite(v, q)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("rewritten-HyPE", func(b *testing.B) {
		e := smoqe.PrepareMFA(m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			evalWith(b, e, doc.Root, smoqe.EvalOptions{})
		}
	})
	b.Run("materialize-and-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mat, err := view.Materialize(v, doc)
			if err != nil {
				b.Fatal(err)
			}
			smoqe.EvalReference(q, mat.Doc.Root)
		}
	})
}

// BenchmarkIndexBuild measures OptHyPE-C index construction and reports
// the index's memory.
func BenchmarkIndexBuild(b *testing.B) {
	cd := smoqe.BuildColumnar(benchDoc(b, benchPatients))
	var idx *smoqe.Index
	for i := 0; i < b.N; i++ {
		idx = smoqe.BuildIndex(cd)
	}
	b.ReportMetric(float64(idx.MemoryBytes()), "index-bytes")
}

// BenchmarkCompile measures Xreg-to-MFA compilation (it must be trivially
// cheap next to evaluation).
func BenchmarkCompile(b *testing.B) {
	q := xpath.MustParse(hospital.QExample21)
	for i := 0; i < b.N; i++ {
		if _, err := smoqe.Compile(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParse measures query parsing.
func BenchmarkParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := smoqe.ParseQuery(hospital.QExample21); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaterialize measures view materialization (the cost the
// rewriting approach avoids per query).
func BenchmarkMaterialize(b *testing.B) {
	v := hospital.Sigma0()
	doc := benchDoc(b, benchPatients)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := view.Materialize(v, doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchEvaluation compares answering k rewritten view queries
// with one merged-automaton pass against k separate passes — the
// many-user-groups scenario of the paper's introduction.
func BenchmarkBatchEvaluation(b *testing.B) {
	v := hospital.Sigma0()
	doc := benchDoc(b, benchPatients)
	queries := []string{
		"patient",
		hospital.QExample11,
		hospital.QExample41,
		"patient/record/diagnosis",
		"(patient/parent)*/patient[record/empty]",
		"patient[not(parent)]",
		"patient[record/diagnosis/text()='heart disease']",
		"patient/parent/patient",
	}
	var ms []*smoqe.MFA
	for _, src := range queries {
		ms = append(ms, rewrite.MustRewrite(v, xpath.MustParse(src)))
	}
	merged, err := smoqe.Merge(ms)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("merged-single-pass", func(b *testing.B) {
		e := smoqe.PrepareMFA(merged)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			evalWith(b, e, doc.Root, smoqe.EvalOptions{})
		}
	})
	b.Run("separate-passes", func(b *testing.B) {
		plans := make([]*smoqe.PreparedQuery, len(ms))
		for i, m := range ms {
			plans[i] = smoqe.PrepareMFA(m)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range plans {
				evalWith(b, p, doc.Root, smoqe.EvalOptions{})
			}
		}
	})
}
