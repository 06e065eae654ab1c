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
	cd := colstore.FromTree(datagen.Generate(datagen.DefaultConfig(3000)))
	m := mfa.MustCompile(xpath.MustParse(hospital.RXC))
	idx := BuildIndex(cd)
	run := func(b *testing.B, e *Engine, opts Options) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Eval(context.Background(), cd, opts); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("HyPE-no-index", func(b *testing.B) { run(b, New(m), Options{}) })
	b.Run("OptHyPE-alphabet-only", func(b *testing.B) {
		e := New(m)
		// Disable text refutation: mark every AFA state always-possible.
		im := e.bindIndex(idx)
		for g := range im.afaAlways {
			for t := range im.afaAlways[g] {
				im.afaAlways[g][t] = true
			}
		}
		run(b, e, Options{Index: idx})
	})
	b.Run("OptHyPE-full", func(b *testing.B) { run(b, New(m), Options{Index: idx}) })
}

// bindSink keeps BenchmarkColumnarBind's result alive.
var bindSink []int32

// BenchmarkColumnarBind isolates the per-evaluation label translation
// every evaluation pays before its DFS (internal package: the binding is
// not exported).
func BenchmarkColumnarBind(b *testing.B) {
	cd := colstore.FromTree(datagen.Generate(datagen.DefaultConfig(3000)))
	e := New(mfa.MustCompile(xpath.MustParse(hospital.XPA)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bindSink = e.bind(cd)
	}
}
