package hype_test

import (
	"bytes"
	"fmt"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/qgen"
	"smoqe/internal/rewrite"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

// fingerprinted is a document's columnar form and fingerprint, the two
// inputs CanMatch reads, as a corpus holds them.
type fingerprinted struct {
	cd *colstore.Document
	fp hype.Fingerprint
}

func fingerprint(doc *xmltree.Document) fingerprinted {
	cd := colstore.FromTree(doc)
	return fingerprinted{cd, hype.FingerprintDoc(cd)}
}

// canMatch is hype.CanMatch of m on the fingerprinted document.
func (f fingerprinted) canMatch(m *mfa.MFA) bool { return hype.CanMatch(m, f.cd, f.fp) }

// viaSnapshot reads back what WriteSnapshot writes for f's document, so
// the labels CanMatch reads come from a snapshot's label table.
func viaSnapshot(t *testing.T, f fingerprinted) fingerprinted {
	t.Helper()
	var buf bytes.Buffer
	if err := f.cd.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	cd, err := colstore.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return fingerprinted{cd, hype.FingerprintDoc(cd)}
}

// heartDoc generates an n-patient document whose visits are diagnosed
// heart disease at rate heartFrac.
func heartDoc(n int, heartFrac float64) *xmltree.Document {
	cfg := datagen.DefaultConfig(n)
	cfg.HeartFrac = heartFrac
	return datagen.Generate(cfg)
}

func TestFingerprintDoc(t *testing.T) {
	doc, err := xmltree.ParseString(`<a><b>one</b><c><b/>two</c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	f := fingerprint(doc).fp
	if f.Elements != 4 {
		t.Errorf("Elements = %d, want 4", f.Elements)
	}
	for _, txt := range []string{"one", "two", ""} {
		if !f.MayHaveText(txt) {
			t.Errorf("MayHaveText(%q) = false for text the document holds", txt)
		}
	}
	// Only direct text content counts: <c> holds "two", not "onetwo".
	if f.MayHaveText("onetwo") || f.MayHaveText("three") {
		t.Error("MayHaveText admits text no element holds")
	}
	if empty := fingerprint(xmltree.NewDocument("a")).fp; empty.MayHaveText("one") {
		t.Error("a document without text admits a text constant")
	}
}

func TestFingerprintEmptyDoc(t *testing.T) {
	m := mfa.MustCompile(xpath.MustParse("."))
	if hype.CanMatch(m, colstore.FromTree(xmltree.NewDocument("a")), hype.Fingerprint{}) {
		t.Error("CanMatch(empty fingerprint) = true, want false")
	}
}

// scurvyQuery tests a diagnosis no generated document holds.
const scurvyQuery = "department/patient[visit/treatment/medication/diagnosis/text()='scurvy']/pname"

// TestPrefilterRefutes pins the cases the prefilter must catch: a label the
// document lacks, a text constant the document lacks (also under AND, and
// on documents large enough to saturate a fixed-width text filter) — and
// the cases it must pass through. The sample document's cases also run on
// its snapshot read back, whose label table CanMatch then reads.
func TestPrefilterRefutes(t *testing.T) {
	sample := fingerprint(hospital.SampleDocument())
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
		{"department/patient[visit/treatment/medication/diagnosis/text()='no such ailment' or visit]", true},
		// Conjunction: one refuted conjunct refutes the guard, even next
		// to a NOT or a label-only conjunct.
		{"department/patient[visit/treatment/medication/diagnosis/text()='no such ailment' and visit]", false},
		{"department/patient[visit/treatment/medication/diagnosis/text()='no such ailment' and not(pname)]", false},
		// A TRANS needs its label: the constant exists, the path does not.
		{"department/patient[nosuchlabel/diagnosis/text()='heart disease']", false},
	}
	for _, form := range []struct {
		name string
		f    fingerprinted
	}{{"tree", sample}, {"snapshot", viaSnapshot(t, sample)}} {
		for _, tc := range cases {
			if got := form.f.canMatch(mfa.MustCompile(xpath.MustParse(tc.query))); got != tc.want {
				t.Errorf("%s: CanMatch(%q) = %v, want %v", form.name, tc.query, got, tc.want)
			}
		}
	}

	// Documents of the benchmark's largest size, hundreds of distinct text
	// values each: without heart disease, every heart-disease query and
	// the scurvy query are refuted; with it, only the scurvy query is.
	ex11, err := rewrite.Rewrite(hospital.Sigma0(), xpath.MustParse(hospital.QExample11))
	if err != nil {
		t.Fatal(err)
	}
	machines := []struct {
		name  string
		m     *mfa.MFA
		heart bool // the query needs a heart-disease diagnosis
	}{
		{"XP-B", mfa.MustCompile(xpath.MustParse(hospital.XPB)), true},
		{"RX-C", mfa.MustCompile(xpath.MustParse(hospital.RXC)), true},
		{"Example 1.1 over σ0", ex11, true},
		{"scurvy", mfa.MustCompile(xpath.MustParse(scurvyQuery)), false},
	}
	for _, heartFrac := range []float64{0, 0.12} {
		f := fingerprint(heartDoc(110, heartFrac))
		for _, mc := range machines {
			want := heartFrac > 0 && mc.heart
			if got := f.canMatch(mc.m); got != want {
				t.Errorf("HeartFrac %v: CanMatch(%s) = %v, want %v", heartFrac, mc.name, got, want)
			}
		}
	}
}

// TestPrefilterSound is the property that makes corpus prefiltering safe:
// whenever CanMatch refutes a document, evaluating the query on it must
// return no answers. Exercised over the sample corpus queries, a swarm of
// generated source queries and a swarm of generated σ0-view queries
// rewritten to the source, against the hospital sample and synthetic
// documents with and without heart disease. The refutation count is
// pinned, so a loss of precision fails too.
func TestPrefilterSound(t *testing.T) {
	docs := []*xmltree.Document{
		hospital.SampleDocument(),
		datagen.Generate(datagen.DefaultConfig(200)),
		datagen.Generate(datagen.DefaultConfig(50)),
		heartDoc(110, 0),
		heartDoc(40, 0),
	}
	type query struct {
		name string
		m    *mfa.MFA
	}
	var queries []query
	texts := []string{"heart disease", "flu", "no such ailment"}
	srcGen := qgen.New(hospital.DocDTD(), 1234, texts)
	srcs := append([]string{}, sourceQueries...)
	for i := 0; i < 150; i++ {
		srcs = append(srcs, srcGen.QueryString())
	}
	for _, src := range srcs {
		queries = append(queries, query{src, mfa.MustCompile(xpath.MustParse(src))})
	}
	sigma0 := hospital.Sigma0()
	viewGen := qgen.New(hospital.ViewDTD(), 4321, texts)
	for i := 0; i < 80; i++ {
		q := viewGen.Query()
		m, err := rewrite.Rewrite(sigma0, q)
		if err != nil {
			t.Fatalf("view query %q: rewrite: %v", q, err)
		}
		queries = append(queries, query{fmt.Sprintf("σ0 view query %q", q), m})
	}
	fps := make([]fingerprinted, len(docs))
	for di, doc := range docs {
		fps[di] = fingerprint(doc)
	}
	refuted := 0
	for _, q := range queries {
		eng := hype.New(q.m)
		for di, doc := range docs {
			if fps[di].canMatch(q.m) {
				continue
			}
			refuted++
			if got := answers(t, eng, doc.Root, false); len(got) != 0 {
				t.Fatalf("unsound: CanMatch refuted doc %d for %s, but eval found %d answers", di, q.name, len(got))
			}
		}
	}
	if want := 306; refuted != want {
		t.Errorf("prefilter refuted %d (query, document) pairs, want %d", refuted, want)
	}
}
