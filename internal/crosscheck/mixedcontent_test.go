package crosscheck_test

// Regression tests for position()=k in mixed content. Node.Pos used to
// count both element and text children, so in <a>hi<b/></a> the b element
// had position 2 — diverging from XPath's element-ordinal semantics and,
// worse, making the answer depend on whitespace handling. Pos is now the
// element ordinal among element siblings; all engines read it through the
// same field, and this test pins them to each other and to hand-computed
// expectations.

import (
	"fmt"
	"testing"

	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/refeval"
	"smoqe/internal/twopass"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
	"smoqe/internal/xqsim"
)

const mixedDoc = `<doc>
  <sec>intro<p>one</p>middle<p>two</p>trailing<note/>end</sec>
  <sec><p>alpha</p>x<p>beta</p>y<p>gamma</p></sec>
</doc>`

func TestMixedContentPositionAcrossEngines(t *testing.T) {
	doc, err := xmltree.ParseString(mixedDoc)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		query string
		want  int // number of answers
	}{
		// First p of each sec: text siblings before it must not shift it.
		{"sec/p[position()=1]", 2},
		{"sec/p[position()=2]", 2},
		{"sec/p[position()=3]", 1}, // only the second sec has three p's
		// note is the 3rd ELEMENT of the first sec (after two p's), even
		// though five mixed-content children precede it.
		{"sec/note[position()=3]", 1},
		{"sec/note[position()=6]", 0}, // its old, text-counting position
		{"sec[position()=2]/p", 3},
		{"sec[p[position()=2]/text()='beta']", 1},
	}
	for _, c := range cases {
		q := xpath.MustParse(c.query)
		ref := refeval.Eval(q, doc.Root)
		hy := hypeEval(t, hype.New(mfa.MustCompile(q)), doc.Root)
		xq := xqsim.Eval(q, doc.Root)
		tp := twopass.MustNew(q).Eval(doc.Root)

		if len(ref) != c.want {
			t.Errorf("%s: refeval returned %d answers, want %d (ids %v)",
				c.query, len(ref), c.want, xmltree.IDsOf(ref))
		}
		for name, got := range map[string][]*xmltree.Node{"hype": hy, "xqsim": xq, "twopass": tp} {
			if fmt.Sprint(xmltree.IDsOf(got)) != fmt.Sprint(xmltree.IDsOf(ref)) {
				t.Errorf("%s: %s answers %v disagree with refeval %v",
					c.query, name, xmltree.IDsOf(got), xmltree.IDsOf(ref))
			}
		}
	}
}

// TestMixedContentPosBuilderParserAgree: a tree assembled with the builder
// API must give the same element ordinals as the same tree parsed from XML.
func TestMixedContentPosBuilderParserAgree(t *testing.T) {
	built := xmltree.NewDocument("a")
	built.AddText(built.Root, "hi")
	b := built.AddElement(built.Root, "b")
	built.AddText(built.Root, "mid")
	c := built.AddElement(built.Root, "c")

	if b.Pos != 1 || c.Pos != 2 {
		t.Fatalf("builder element ordinals: b=%d c=%d, want 1, 2", b.Pos, c.Pos)
	}

	parsed, err := xmltree.ParseString(`<a>hi<b/>mid<c/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	kids := parsed.Root.ElementChildren()
	if kids[0].Pos != b.Pos || kids[1].Pos != c.Pos {
		t.Errorf("parser ordinals (%d, %d) disagree with builder (%d, %d)",
			kids[0].Pos, kids[1].Pos, b.Pos, c.Pos)
	}
	texts := []*xmltree.Node{parsed.Root.Children[0], parsed.Root.Children[2]}
	if texts[0].Pos != 1 || texts[1].Pos != 2 {
		t.Errorf("text ordinals: got %d, %d, want 1, 2", texts[0].Pos, texts[1].Pos)
	}
}
