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
// benchEval uses.
func benchColumnar(b *testing.B, qsrc string) {
	doc := datagen.Generate(datagen.DefaultConfig(3000))
	cd := colstore.FromTree(doc)
	m := mfa.MustCompile(xpath.MustParse(qsrc))
	e := hype.New(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Eval(context.Background(), cd, hype.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColumnarSimplePath(b *testing.B)   { benchColumnar(b, "department/patient/pname") }
func BenchmarkColumnarLargeFilter(b *testing.B)  { benchColumnar(b, hospital.XPA) }
func BenchmarkColumnarStarInFilter(b *testing.B) { benchColumnar(b, hospital.RXC) }
func BenchmarkColumnarBigAutomaton(b *testing.B) { benchColumnar(b, hospital.QExample21) }
