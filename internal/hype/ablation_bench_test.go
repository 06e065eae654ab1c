package hype

// Ablation benchmarks for the OptHyPE index components (internal package:
// they toggle analysis tables directly).

import (
	"context"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/mfa"
	"smoqe/internal/xpath"
)

// BenchmarkIndexAblation evaluates RX-C with (a) no index, (b) the
// alphabet-only index, and (c) the full index with text blooms —
// quantifying each pruning component.
func BenchmarkIndexAblation(b *testing.B) {
	doc := datagen.Generate(datagen.DefaultConfig(3000))
	m := mfa.MustCompile(xpath.MustParse(hospital.RXC))
	idx := BuildIndex(doc, true)

	b.Run("HyPE-no-index", func(b *testing.B) {
		e := New(m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			evalNodes(e, doc.Root)
		}
	})
	b.Run("OptHyPE-alphabet-only", func(b *testing.B) {
		e := NewOpt(m, idx)
		// Disable text refutation: mark every AFA state always-possible.
		for g := range e.afaAlways {
			for t := range e.afaAlways[g] {
				e.afaAlways[g][t] = true
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			evalNodes(e, doc.Root)
		}
	})
	b.Run("OptHyPE-full", func(b *testing.B) {
		e := NewOpt(m, idx)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			evalNodes(e, doc.Root)
		}
	})
}

// BenchmarkCompiledAblation isolates the compiled evaluation layer (lazy
// subset DFA over the selecting NFA + bitset AFAs) against the interpreted
// pointer pass (NFA simulation), for a descendant query and the recursive
// RX-C; the columnar pass, which is always compiled, runs alongside. All
// three make identical decisions, so the deltas are purely the per-node
// transition and child-iteration costs.
func BenchmarkCompiledAblation(b *testing.B) {
	doc := datagen.Generate(datagen.DefaultConfig(3000))
	cd := colstore.FromTree(doc)
	for _, q := range []struct{ name, src string }{
		{"diagnosis", "//diagnosis"},
		{"RXC", hospital.RXC},
	} {
		m := mfa.MustCompile(xpath.MustParse(q.src))
		for _, compiled := range []bool{false, true} {
			mode := "interpreted"
			if compiled {
				mode = "compiled"
			}
			b.Run(q.name+"/pointer-"+mode, func(b *testing.B) {
				e := New(m)
				e.SetCompiled(compiled)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					evalNodes(e, doc.Root)
				}
			})
		}
		b.Run(q.name+"/columnar-compiled", func(b *testing.B) {
			e := New(m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.EvalColumnar(context.Background(), cd, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// bindSink keeps BenchmarkColumnarBind's result alive.
var bindSink *colBinding

// BenchmarkColumnarBind isolates the per-evaluation label translation
// every EvalColumnar pays before its DFS (internal package: the binding is
// not exported).
func BenchmarkColumnarBind(b *testing.B) {
	cd := colstore.FromTree(datagen.Generate(datagen.DefaultConfig(3000)))
	e := New(mfa.MustCompile(xpath.MustParse(hospital.XPA)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bindSink = e.prog.bind(cd)
	}
}
