package xmltree

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestBuildAndNavigate(t *testing.T) {
	d := NewDocument("hospital")
	dep := d.AddElement(d.Root, "department")
	p1 := d.AddElement(dep, "patient")
	name := d.AddElement(p1, "pname")
	d.AddText(name, "Alice")
	p2 := d.AddElement(dep, "patient")

	if d.Root.Label != "hospital" || d.Root.Depth != 0 || d.Root.Pos != 1 {
		t.Fatalf("bad root: %+v", d.Root)
	}
	if dep.Parent != d.Root || dep.Depth != 1 {
		t.Errorf("bad department node: %+v", dep)
	}
	if p1.Pos != 1 || p2.Pos != 2 {
		t.Errorf("sibling positions: got %d, %d", p1.Pos, p2.Pos)
	}
	if got := name.TextContent(); got != "Alice" {
		t.Errorf("TextContent = %q, want Alice", got)
	}
	if d.NumNodes() != 6 {
		t.Errorf("NumNodes = %d, want 6", d.NumNodes())
	}
	// IDs are preorder-dense.
	for i := 0; i < d.NumNodes(); i++ {
		if n := d.NodeByID(i); n == nil || n.ID != i {
			t.Fatalf("NodeByID(%d) broken: %+v", i, n)
		}
	}
	if d.NodeByID(-1) != nil || d.NodeByID(99) != nil {
		t.Errorf("NodeByID out of range should be nil")
	}
}

func TestParseBasic(t *testing.T) {
	doc, err := ParseString(`<a><b>hello</b><c/><b>world</b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Label != "a" {
		t.Fatalf("root = %q", doc.Root.Label)
	}
	kids := doc.Root.ElementChildren()
	if len(kids) != 3 {
		t.Fatalf("got %d children, want 3", len(kids))
	}
	if kids[0].TextContent() != "hello" || kids[2].TextContent() != "world" {
		t.Errorf("text content wrong: %q, %q", kids[0].TextContent(), kids[2].TextContent())
	}
	if kids[1].Label != "c" || len(kids[1].Children) != 0 {
		t.Errorf("self-closing element mishandled: %+v", kids[1])
	}
}

func TestParseSkipsNoise(t *testing.T) {
	doc, err := ParseString(`<?xml version="1.0"?>
<!-- comment -->
<a x="1">
  <b>v</b>
</a>`)
	if err != nil {
		t.Fatal(err)
	}
	st := doc.ComputeStats()
	if st.Elements != 2 || st.Texts != 1 {
		t.Errorf("stats = %+v, want 2 elements 1 text", st)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`<a>`,
		`<a></b>`,
		`<a/><b/>`,
		`text only`,
	}
	for _, c := range cases {
		if _, err := ParseString(c); err == nil {
			t.Errorf("ParseString(%q): want error, got nil", c)
		}
	}
	// End tags and end of input are checked by the walk, not by
	// encoding/xml's Token, with the texts Token gives.
	const syntax = "xmltree: parse: XML syntax error on line "
	texts := []struct{ in, want string }{
		{`</a>`, syntax + "1: unexpected end element </a>"},
		{`<a/></a>`, syntax + "1: unexpected end element </a>"},
		{`<a></b>`, syntax + "1: element <a> closed by </b>"},
		{"<a>\n<b>\n</a>", syntax + "3: element <b> closed by </a>"},
		{`<p:a></q:a>`, syntax + "1: element <a> in space p closed by </a> in space q"},
		{`<p:a></a>`, syntax + `1: element <a> in space p closed by </a> in space ""`},
		{`<a></p:a>`, syntax + "1: element <a> in space  closed by </a> in space p"},
		{`<a>`, syntax + "1: unexpected EOF"},
		{`<a><b>`, syntax + "1: unexpected EOF"},
		{"<a>\nx", syntax + "2: unexpected EOF"},
	}
	for _, c := range texts {
		_, err := ParseString(c.in)
		if err == nil || err.Error() != c.want {
			t.Errorf("ParseString(%q): error %v, want %q", c.in, err, c.want)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	in := `<a><b>x &amp; y</b><c><d/></c>tail</a>`
	doc, err := ParseString(in)
	if err != nil {
		t.Fatal(err)
	}
	out := doc.XMLString()
	doc2, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse of %q: %v", out, err)
	}
	if !equalTree(doc.Root, doc2.Root) {
		t.Errorf("round trip changed tree:\n in: %s\nout: %s", in, out)
	}
	if doc.XMLSize() != len(out) {
		t.Errorf("XMLSize = %d, len = %d", doc.XMLSize(), len(out))
	}
}

func TestEscaping(t *testing.T) {
	d := NewDocument("a")
	d.AddText(d.Root, `5 < 6 & "7" > 3`)
	s := d.XMLString()
	if strings.ContainsAny(strings.TrimSuffix(strings.TrimPrefix(s, "<a>"), "</a>"), "<>") {
		t.Errorf("unescaped markup characters in %q", s)
	}
	doc2, err := ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc2.Root.TextContent(); got != `5 < 6 & "7" > 3` {
		t.Errorf("escaped round trip = %q", got)
	}
}

func TestCarriageReturnRoundTrip(t *testing.T) {
	d := NewDocument("a")
	d.AddText(d.Root, "line1\rline2\r\nline3")
	out := d.XMLString()
	if !strings.Contains(out, "&#13;") {
		t.Fatalf("carriage return not escaped: %q", out)
	}
	d2, err := ParseString(out)
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.Root.TextContent(); got != "line1\rline2\r\nline3" {
		t.Errorf("round trip = %q, want %q", got, "line1\rline2\r\nline3")
	}
}

func TestMixedContentPos(t *testing.T) {
	doc, err := ParseString(`<a>hi<b/>mid<c/><d/>tail</a>`)
	if err != nil {
		t.Fatal(err)
	}
	elems := doc.Root.ElementChildren()
	for i, want := range []int{1, 2, 3} {
		if elems[i].Pos != want {
			t.Errorf("element %s Pos = %d, want %d (element ordinal, text siblings don't count)",
				elems[i].Label, elems[i].Pos, want)
		}
	}
	texts := 0
	for _, c := range doc.Root.Children {
		if c.Kind == Text {
			texts++
			if c.Pos != texts {
				t.Errorf("text node %d Pos = %d, want %d", texts, c.Pos, texts)
			}
		}
	}
}

func TestClone(t *testing.T) {
	doc, err := ParseString(`<a>hi<b><c>x</c></b><d/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	cp := doc.Clone()
	if !equalTree(doc.Root, cp.Root) {
		t.Fatal("clone differs from original")
	}
	if cp.NumNodes() != doc.NumNodes() {
		t.Fatalf("clone has %d nodes, want %d", cp.NumNodes(), doc.NumNodes())
	}
	for i := 0; i < doc.NumNodes(); i++ {
		o, c := doc.NodeByID(i), cp.NodeByID(i)
		if o == c {
			t.Fatalf("node %d shared between clone and original", i)
		}
		if o.Pos != c.Pos || o.Depth != c.Depth || o.Kind != c.Kind {
			t.Fatalf("node %d metadata differs: %+v vs %+v", i, o, c)
		}
		if c.Parent != nil && cp.NodeByID(c.Parent.ID) != c.Parent {
			t.Fatalf("node %d parent points outside the clone", i)
		}
	}
	// Mutating the clone must not affect the original.
	cp.AddElement(cp.Root, "new")
	if len(doc.Root.Children) == len(cp.Root.Children) {
		t.Error("mutation of clone leaked into original")
	}
}

func equalTree(a, b *Node) bool {
	if a.Kind != b.Kind || a.Label != b.Label || a.Data != b.Data || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !equalTree(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

func TestTextContentConcatenation(t *testing.T) {
	d := NewDocument("a")
	d.AddText(d.Root, "he")
	d.AddElement(d.Root, "b")
	d.AddText(d.Root, "llo")
	if got := d.Root.TextContent(); got != "hello" {
		t.Errorf("TextContent = %q, want hello", got)
	}
}

func TestWalkPruning(t *testing.T) {
	doc, err := ParseString(`<a><b><c/><d/></b><e/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	var visited []string
	doc.Walk(func(n *Node) bool {
		visited = append(visited, n.Label)
		return n.Label != "b" // prune below b
	})
	want := "a b e"
	if got := strings.Join(visited, " "); got != want {
		t.Errorf("walk visited %q, want %q", got, want)
	}
}

func TestPath(t *testing.T) {
	doc, err := ParseString(`<a><b/><b><c>t</c></b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	b2 := doc.Root.ElementChildren()[1]
	c := b2.ElementChildren()[0]
	if got := c.Path(); got != "/a[1]/b[2]/c[1]" {
		t.Errorf("Path = %q", got)
	}
}

func TestSortNodes(t *testing.T) {
	d := NewDocument("a")
	b := d.AddElement(d.Root, "b")
	c := d.AddElement(d.Root, "c")
	ns := []*Node{c, b, d.Root, c, b}
	ns = SortNodes(ns)
	if got := IDsOf(ns); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("SortNodes ids = %v", got)
	}
}

// Property: any tree built from a random shape serializes and reparses to an
// equal tree with identical stats.
func TestQuickRoundTrip(t *testing.T) {
	f := func(shape []byte, texts []string) bool {
		d := NewDocument("root")
		cur := d.Root
		labels := []string{"a", "b", "c", "d"}
		ti := 0
		for _, op := range shape {
			switch op % 4 {
			case 0, 1:
				cur = d.AddElement(cur, labels[int(op/4)%len(labels)])
			case 2:
				if cur.Parent != nil {
					cur = cur.Parent
				}
			case 3:
				if ti < len(texts) {
					s := strings.Map(func(r rune) rune {
						if r < 0x20 || r > 0x7e {
							return 'x'
						}
						return r
					}, texts[ti])
					ti++
					lastIsText := len(cur.Children) > 0 && cur.Children[len(cur.Children)-1].Kind == Text
					if strings.TrimSpace(s) != "" && !lastIsText {
						d.AddText(cur, s)
					}
				}
			}
		}
		out := d.XMLString()
		d2, err := ParseString(out)
		if err != nil {
			t.Logf("reparse error on %q: %v", out, err)
			return false
		}
		if !equalTree(d.Root, d2.Root) {
			return false
		}
		s1, s2 := d.ComputeStats(), d2.ComputeStats()
		return s1.Elements == s2.Elements && s1.Texts == s2.Texts && s1.MaxDepth == s2.MaxDepth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

type failingWriter struct{ budget int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.budget <= 0 {
		return 0, errWrite
	}
	f.budget -= len(p)
	return len(p), nil
}

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "write failed" }

func TestWriteXMLError(t *testing.T) {
	doc, err := ParseString(`<a><b>text</b><c/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.WriteXML(&failingWriter{budget: 0}, false); err == nil {
		t.Error("want error from failing writer")
	}
	if err := doc.WriteXML(&failingWriter{budget: 4}, true); err == nil {
		t.Error("want error from failing writer (indented)")
	}
}
