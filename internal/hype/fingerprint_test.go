package hype_test

import (
	"testing"

	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/qgen"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

func TestFingerprintDoc(t *testing.T) {
	doc, err := xmltree.ParseString(`<a><b>one</b><c><b/>two</c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	f := hype.FingerprintDoc(doc)
	if f.Elements != 4 {
		t.Errorf("Elements = %d, want 4", f.Elements)
	}
	want := []string{"a", "b", "c"}
	if len(f.Labels) != len(want) {
		t.Fatalf("Labels = %v, want %v", f.Labels, want)
	}
	for i, l := range want {
		if f.Labels[i] != l {
			t.Fatalf("Labels = %v, want %v", f.Labels, want)
		}
	}
	if !f.HasLabel("b") || f.HasLabel("z") {
		t.Errorf("HasLabel: b=%v z=%v", f.HasLabel("b"), f.HasLabel("z"))
	}
	for _, txt := range []string{"one", "two"} {
		mk := hype.TextMask(txt)
		if f.TextBloom&mk != mk {
			t.Errorf("TextBloom misses %q", txt)
		}
	}
}

func TestFingerprintEmptyDoc(t *testing.T) {
	p := hype.NewPrefilter(mfa.MustCompile(xpath.MustParse(".")))
	if p.CanMatch(hype.Fingerprint{}) {
		t.Error("CanMatch(empty fingerprint) = true, want false")
	}
}

// TestPrefilterRefutes pins the cases the prefilter must catch: a label the
// document lacks, a text constant the document lacks — and the cases it
// must pass through.
func TestPrefilterRefutes(t *testing.T) {
	doc := hospital.SampleDocument()
	fp := hype.FingerprintDoc(doc)
	cases := []struct {
		query string
		want  bool
	}{
		{".", true},
		{"department/patient", true},
		{"//diagnosis", true},
		{"nosuchlabel", false},
		{"department/nosuchlabel", false},
		{"//nosuchlabel", false},
		{"department/patient[visit/treatment/medication/diagnosis/text()='heart disease']", true},
		{"department/patient[visit/treatment/medication/diagnosis/text()='no such ailment']", false},
		{"department/patient[not(visit)]", true},
		// Disjunction: one present branch keeps the document in.
		{"nosuchlabel | department/patient", true},
	}
	for _, tc := range cases {
		p := hype.NewPrefilter(mfa.MustCompile(xpath.MustParse(tc.query)))
		if got := p.CanMatch(fp); got != tc.want {
			t.Errorf("CanMatch(%q) = %v, want %v", tc.query, got, tc.want)
		}
	}
}

// TestPrefilterSound is the property that makes corpus prefiltering safe:
// whenever CanMatch refutes a document, evaluating the query on it must
// return no answers. Exercised over the sample corpus queries and a swarm
// of generated ones, against both the hospital sample and synthetic
// documents.
func TestPrefilterSound(t *testing.T) {
	docs := []*xmltree.Document{
		hospital.SampleDocument(),
		datagen.Generate(datagen.DefaultConfig(200)),
		datagen.Generate(datagen.DefaultConfig(50)),
	}
	queries := append([]string{}, sourceQueries...)
	g := qgen.New(hospital.DocDTD(), 1234, []string{"heart disease", "flu", "no such ailment"})
	for i := 0; i < 150; i++ {
		queries = append(queries, g.QueryString())
	}
	refuted := 0
	for _, src := range queries {
		m := mfa.MustCompile(xpath.MustParse(src))
		p := hype.NewPrefilter(m)
		eng := hype.New(m)
		for di, doc := range docs {
			fp := hype.FingerprintDoc(doc)
			got := answers(t, eng, doc.Root)
			if !p.CanMatch(fp) {
				refuted++
				if len(got) != 0 {
					t.Fatalf("unsound: CanMatch refuted doc %d for %q, but eval found %d answers", di, src, len(got))
				}
			}
		}
	}
	if refuted == 0 {
		t.Error("prefilter never refuted anything; test exercises nothing")
	}
}
