package crosscheck_test

// Metamorphic identities of Xreg: each side of an identity is evaluated by
// the same pass, so they need no oracle, and they hold whatever the answers
// are. They catch a pass that is wrong the same way every oracle-free
// configuration is, which the agreement tests between configurations
// cannot.

import (
	"fmt"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/qgen"
	"smoqe/internal/xpath"
)

// TestMetamorphicIdentities checks, for generated queries Q1 (at the
// document root) and Q2 (at any element type), on the sample document and
// a generated one, without index, with the index and shard-parallel:
//
//	Q1/. ≡ Q1,  Q1* ≡ . ∪ Q1/Q1*,  Q1 ∪ Q2 ≡ Q2 ∪ Q1,  Q1[Q2] ⊆ Q1.
func TestMetamorphicIdentities(t *testing.T) {
	d := hospital.DocDTD()
	gen := qgen.New(d, 31, []string{"heart disease", "flu"})
	docs := []*colstore.Document{
		colstore.FromTree(hospital.SampleDocument()),
		colstore.FromTree(datagen.Generate(datagen.DefaultConfig(150))),
	}
	cases, answered := 0, 0
	for i := 0; i < 60; i++ {
		q1, q2 := gen.Query(), gen.QueryFrom(d.Types()...)
		for di, cd := range docs {
			ix := hype.BuildIndex(cd)
			for _, opts := range []hype.Options{{}, {Index: ix}, {Workers: 2}} {
				tag := fmt.Sprintf("doc %d, index=%v workers=%d", di, opts.Index != nil, opts.Workers)
				run := func(q xpath.Path) []int { return columnarRun(t, mfa.MustCompile(q), cd, opts).IDs }
				equal := func(lhs, rhs xpath.Path) {
					if l, r := run(lhs), run(rhs); !sameIDs(l, r) {
						t.Errorf("%s: %s answers %v, %s answers %v", tag, lhs, l, rhs, r)
					}
				}
				equal(&xpath.Seq{Left: q1, Right: xpath.Empty{}}, q1)
				equal(&xpath.Star{Sub: q1}, &xpath.Union{Left: xpath.Empty{}, Right: &xpath.Seq{Left: q1, Right: &xpath.Star{Sub: q1}}})
				equal(&xpath.Union{Left: q1, Right: q2}, &xpath.Union{Left: q2, Right: q1})
				all := run(q1)
				filtered := &xpath.Filter{Path: q1, Cond: &xpath.Exists{Path: q2}}
				if sub := run(filtered); !subsetIDs(sub, all) {
					t.Errorf("%s: %s answers %v, not within %s's %v", tag, filtered, sub, q1, all)
				}
				cases++
				if len(all) > 0 {
					answered++
				}
			}
		}
	}
	// Identities over empty answer sets hold trivially; most cases must
	// have answers for the test to mean anything.
	if answered*2 < cases {
		t.Errorf("only %d of %d cases have answers", answered, cases)
	}
}

// subsetIDs reports whether the sorted ids a all occur in the sorted ids b.
func subsetIDs(a, b []int) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
	}
	return true
}
