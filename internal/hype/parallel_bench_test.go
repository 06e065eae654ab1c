package hype_test

import (
	"sync"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
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
