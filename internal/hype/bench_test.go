package hype_test

import (
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/rewrite"
	"smoqe/internal/xpath"
)

// Engine micro-benchmarks on a mid-size corpus (the figure-level
// benchmarks live at the repository root).

func benchEval(b *testing.B, qsrc string, opt bool) {
	cd := colstore.FromTree(datagen.Generate(datagen.DefaultConfig(3000)))
	m := mfa.MustCompile(xpath.MustParse(qsrc))
	var opts hype.Options
	if opt {
		opts.Index = hype.BuildIndex(cd)
	}
	e := hype.New(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		colEval(b, e, cd, opts)
	}
}

func BenchmarkHyPESimplePath(b *testing.B)    { benchEval(b, "department/patient/pname", false) }
func BenchmarkHyPELargeFilter(b *testing.B)   { benchEval(b, hospital.XPA, false) }
func BenchmarkHyPEStarInFilter(b *testing.B)  { benchEval(b, hospital.RXC, false) }
func BenchmarkHyPEBigAutomaton(b *testing.B)  { benchEval(b, hospital.QExample21, false) }
func BenchmarkOptHyPEStarFilter(b *testing.B) { benchEval(b, hospital.RXC, true) }

// BenchmarkRewrittenMFA evaluates a view-rewritten automaton (ε-heavy,
// shared product AFAs) — the pipeline's hot path.
func BenchmarkRewrittenMFA(b *testing.B) {
	cd := colstore.FromTree(datagen.Generate(datagen.DefaultConfig(3000)))
	v := hospital.Sigma0()
	m := rewrite.MustRewrite(v, xpath.MustParse(hospital.QExample41))
	e := hype.New(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		colEval(b, e, cd, hype.Options{})
	}
}

// BenchmarkBuildIndex measures the index construction.
func BenchmarkBuildIndex(b *testing.B) {
	cd := colstore.FromTree(datagen.Generate(datagen.DefaultConfig(3000)))
	for i := 0; i < b.N; i++ {
		hype.BuildIndex(cd)
	}
}
