package hype_test

import (
	"sync"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/rewrite"
	"smoqe/internal/xpath"
)

// Shard-parallel evaluation benchmarks on a §7-scale document (~20k
// patients across 21 departments — big enough that per-shard work
// dominates the plan/merge overhead). Run with -bench=Parallel; the
// acceptance bar for the parallel path is ≥1.5× over sequential at 4
// workers on the heavy queries.

var parallelBenchDoc struct {
	once sync.Once
	cd   *colstore.Document
}

func benchDoc() *colstore.Document {
	parallelBenchDoc.once.Do(func() {
		parallelBenchDoc.cd = colstore.FromTree(datagen.Generate(datagen.DefaultConfig(20000)))
	})
	return parallelBenchDoc.cd
}

func benchParallel(b *testing.B, qsrc string) {
	cd := benchDoc()
	m := mfa.MustCompile(xpath.MustParse(qsrc))
	b.Run("seq", func(b *testing.B) {
		e := hype.New(m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			colEval(b, e, cd, hype.Options{})
		}
	})
	for _, w := range []int{2, 4, 8} {
		b.Run(map[int]string{2: "par2", 4: "par4", 8: "par8"}[w], func(b *testing.B) {
			e := hype.New(m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				colEval(b, e, cd, hype.Options{Workers: w})
			}
		})
	}
}

func BenchmarkParallelDescendant(b *testing.B)  { benchParallel(b, "//diagnosis") }
func BenchmarkParallelLargeFilter(b *testing.B) { benchParallel(b, hospital.XPA) }
func BenchmarkParallelStarFilter(b *testing.B)  { benchParallel(b, hospital.RXC) }

// BenchmarkParallelDocHot evaluates the nine automata of the serving
// benchmark's doc_hot workload — the six Fig. 8/9 queries, //diagnosis,
// and Examples 1.1 and 4.1 rewritten over σ0 — on a 2,000-patient
// document, one op per pass over all nine on warm engines, sequentially
// and on 2 workers, without and with the index.
func BenchmarkParallelDocHot(b *testing.B) {
	cfg := datagen.DefaultConfig(2000)
	cfg.HeartFrac = 0.12
	cd := colstore.FromTree(datagen.Generate(cfg))
	ix := hype.BuildIndex(cd)
	var ms []*mfa.MFA
	for _, src := range []string{hospital.XPA, hospital.XPB, hospital.XPC, hospital.RXA, hospital.RXB, hospital.RXC, "//diagnosis"} {
		ms = append(ms, mfa.MustCompile(xpath.MustParse(src)))
	}
	for _, src := range []string{hospital.QExample11, hospital.QExample41} {
		m, err := rewrite.Rewrite(hospital.Sigma0(), xpath.MustParse(src))
		if err != nil {
			b.Fatal(err)
		}
		ms = append(ms, m)
	}
	for _, bc := range []struct {
		name string
		opts hype.Options
	}{
		{"seq", hype.Options{}},
		{"par2", hype.Options{Workers: 2}},
		{"seq-index", hype.Options{Index: ix}},
		{"par2-index", hype.Options{Workers: 2, Index: ix}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			es := make([]*hype.Engine, len(ms))
			for i, m := range ms {
				es[i] = hype.New(m)
				colEval(b, es[i], cd, bc.opts)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, e := range es {
					colEval(b, e, cd, bc.opts)
				}
			}
		})
	}
}
