package hype_test

import (
	"context"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/xpath"
)

// benchColumnar evaluates qsrc over the columnar form of the same corpus
// benchEval uses, head-to-head with the pointer traversal.
func benchColumnar(b *testing.B, qsrc string) {
	doc := datagen.Generate(datagen.DefaultConfig(3000))
	cd := colstore.FromTree(doc)
	m := mfa.MustCompile(xpath.MustParse(qsrc))
	e := hype.New(m)
	bind := hype.BindColumnar(m, cd)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.EvalColumnar(context.Background(), bind, hype.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColumnarSimplePath(b *testing.B)   { benchColumnar(b, "department/patient/pname") }
func BenchmarkColumnarLargeFilter(b *testing.B)  { benchColumnar(b, hospital.XPA) }
func BenchmarkColumnarStarInFilter(b *testing.B) { benchColumnar(b, hospital.RXC) }
func BenchmarkColumnarBigAutomaton(b *testing.B) { benchColumnar(b, hospital.QExample21) }

// BenchmarkColumnarBind isolates the per-(automaton, document) label
// translation cost that BindColumnar pays once before any number of
// evaluations.
func BenchmarkColumnarBind(b *testing.B) {
	doc := datagen.Generate(datagen.DefaultConfig(3000))
	cd := colstore.FromTree(doc)
	m := mfa.MustCompile(xpath.MustParse(hospital.XPA))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hype.BindColumnar(m, cd)
	}
}
