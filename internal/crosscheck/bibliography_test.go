package crosscheck_test

// A second application domain — a bibliography with recursive citation
// chains — exercising the whole pipeline on a schema unrelated to the
// paper's hospital example: DTD recursion through reference/book, a
// citation-analysis view that hides authors and abstracts, and recursive
// queries over the virtual view.

import (
	"fmt"
	"math/rand"
	"testing"

	"smoqe/internal/dtd"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/refeval"
	"smoqe/internal/rewrite"
	"smoqe/internal/view"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

const bibDTDSrc = `
dtd library {
  root library;
  library    -> collection*;
  collection -> cname, book*;
  book       -> title, author*, year, topic, reference*;
  reference  -> book;
  cname -> #text; title -> #text; author -> #text;
  year -> #text; topic -> #text;
}`

const citeViewDTDSrc = `
dtd citations {
  root library;
  library -> pub*;
  pub     -> title, cite*;
  cite    -> pub;
  title   -> #text;
}`

// The citation-analysis view: only database publications, their titles and
// their citation closure; authors, years, topics and collections stay
// hidden.
const citeViewSrc = `
view citations {
  library/pub = collection/book[topic/text()='databases'];
  pub/title   = title;
  pub/cite    = reference;
  cite/pub    = book;
}`

// genBibliography builds a deterministic library with nested citation
// chains up to the given depth.
func genBibliography(seed int64, collections, booksPer, citeDepth int) *xmltree.Document {
	rng := rand.New(rand.NewSource(seed))
	topics := []string{"databases", "networks", "theory", "systems"}
	doc := xmltree.NewDocument("library")
	id := 0
	var addBook func(parent *xmltree.Node, depth int)
	addBook = func(parent *xmltree.Node, depth int) {
		id++
		b := doc.AddElement(parent, "book")
		title := doc.AddElement(b, "title")
		doc.AddText(title, fmt.Sprintf("Title-%d", id))
		for a := 0; a <= rng.Intn(3); a++ {
			au := doc.AddElement(b, "author")
			doc.AddText(au, fmt.Sprintf("Author-%d", rng.Intn(40)))
		}
		year := doc.AddElement(b, "year")
		doc.AddText(year, fmt.Sprintf("%d", 1990+rng.Intn(17)))
		topic := doc.AddElement(b, "topic")
		doc.AddText(topic, topics[rng.Intn(len(topics))])
		if depth > 0 {
			for r := 0; r < rng.Intn(3); r++ {
				ref := doc.AddElement(b, "reference")
				addBook(ref, depth-1)
			}
		}
	}
	for c := 0; c < collections; c++ {
		col := doc.AddElement(doc.Root, "collection")
		cn := doc.AddElement(col, "cname")
		doc.AddText(cn, fmt.Sprintf("Coll-%d", c))
		for b := 0; b < booksPer; b++ {
			addBook(col, citeDepth)
		}
	}
	return doc
}

func TestBibliographyDomain(t *testing.T) {
	src := dtd.MustParse(bibDTDSrc)
	tgt := dtd.MustParse(citeViewDTDSrc)
	if !src.IsRecursive() || !tgt.IsRecursive() {
		t.Fatal("both bibliography DTDs must be recursive")
	}
	v := view.MustParse(citeViewSrc, src, tgt)
	doc := genBibliography(7, 3, 12, 3)
	if err := src.CheckDocument(doc); err != nil {
		t.Fatalf("generated library invalid: %v", err)
	}
	mat, err := view.Materialize(v, doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.CheckDocument(mat.Doc); err != nil {
		t.Fatalf("citation view does not conform: %v", err)
	}
	// Hidden labels never leak.
	mat.Doc.Walk(func(n *xmltree.Node) bool {
		switch n.Label {
		case "author", "year", "topic", "collection", "cname":
			t.Fatalf("hidden label %q leaked into the view", n.Label)
		}
		return true
	})

	queries := []string{
		"pub",
		"pub/title",
		"pub/cite/pub",
		"(pub/cite)*",
		"pub/(cite/pub)*/title",
		"pub[cite/pub[cite]]",
		"pub[(cite/pub)*/title/text()='Title-5']",
		"pub[not(cite)]/title",
		"**/title",
	}
	for _, qsrc := range queries {
		q := xpath.MustParse(qsrc)
		want := mat.SourceOf(refeval.Eval(q, mat.Doc.Root))
		m, err := rewrite.Rewrite(v, q)
		if err != nil {
			t.Fatalf("rewrite %q: %v", qsrc, err)
		}
		for name, got := range map[string][]*xmltree.Node{
			"mfa":     mfa.Eval(m, doc.Root),
			"hype":    hypeEval(t, hype.New(m), doc.Root),
			"opthype": optEval(t, hype.New(m), doc.Root),
		} {
			if len(got) != len(want) {
				t.Fatalf("query %q (%s): %d vs %d source nodes", qsrc, name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("query %q (%s): node %d differs", qsrc, name, i)
				}
			}
		}
	}
}

// TestBibliographySecurity: author information is unreachable through the
// citation view, even with wildcards and descendant queries.
func TestBibliographySecurity(t *testing.T) {
	src := dtd.MustParse(bibDTDSrc)
	tgt := dtd.MustParse(citeViewDTDSrc)
	v := view.MustParse(citeViewSrc, src, tgt)
	doc := genBibliography(9, 2, 8, 2)
	for _, qsrc := range []string{"//author", "**/year", "pub/author", "*/*/author"} {
		m, err := rewrite.Rewrite(v, xpath.MustParse(qsrc))
		if err != nil {
			t.Fatalf("%q: %v", qsrc, err)
		}
		if got := hypeEval(t, hype.New(m), doc.Root); len(got) != 0 {
			t.Errorf("query %q reached %d hidden nodes", qsrc, len(got))
		}
	}
}
