package hype_test

import (
	"context"
	"sync"
	"testing"

	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

// Shard-parallel evaluation benchmarks on a §7-scale document (~20k
// patients across 21 departments — big enough that per-shard work
// dominates the plan/merge overhead). Run with -bench=Parallel; the
// acceptance bar for the parallel path is ≥1.5× over sequential at 4
// workers on the heavy queries.

var parallelBenchDoc struct {
	once sync.Once
	doc  *xmltree.Document
}

func benchDoc() *xmltree.Document {
	parallelBenchDoc.once.Do(func() {
		parallelBenchDoc.doc = datagen.Generate(datagen.DefaultConfig(20000))
	})
	return parallelBenchDoc.doc
}

func benchParallel(b *testing.B, qsrc string) {
	doc := benchDoc()
	m := mfa.MustCompile(xpath.MustParse(qsrc))
	b.Run("seq", func(b *testing.B) {
		e := hype.New(m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			answers(b, e, doc.Root)
		}
	})
	for _, w := range []int{2, 4, 8} {
		b.Run(map[int]string{2: "par2", 4: "par4", 8: "par8"}[w], func(b *testing.B) {
			e := hype.New(m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Eval(context.Background(), doc.Root, hype.Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParallelDescendant(b *testing.B)  { benchParallel(b, "//diagnosis") }
func BenchmarkParallelLargeFilter(b *testing.B) { benchParallel(b, hospital.XPA) }
func BenchmarkParallelStarFilter(b *testing.B)  { benchParallel(b, hospital.RXC) }
