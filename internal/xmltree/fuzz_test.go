package xmltree

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// parseSeeds are the inputs the package's XML fuzz targets start from;
// colstore's FuzzDecodeMatchesTree starts from the same list.
var parseSeeds = []string{
	"<a/>",
	"<a><b>x</b><c/></a>",
	"<a>x<b/>y</a>",
	"<a", "</a>", "<a></b>", "<a/><b/>", "text",
	"<a>&amp;&lt;&gt;</a>",
	"<a \xff='1'/>",
	"<a><![CDATA[x]]></a>",
	"<?xml version='1.0'?><a/>",
	"<a>x&#13;y</a>",
	"<a>cr\rlf\nend</a>",
	"<a>x<!--c--> <!--c-->y</a>",
	"<a> <!--c-->x</a>",
	"<a><b>x<c/></b><d/></a>",
}

// FuzzParse checks the XML parser never panics and accepted documents
// survive serialize→parse — both compact and indented — with identical
// structure.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := ParseString(src)
		if err != nil {
			return
		}
		out := doc.XMLString()
		doc2, err := ParseString(out)
		if err != nil {
			t.Fatalf("accepted %q but rejected its own serialization %q: %v", src, out, err)
		}
		s1, s2 := doc.ComputeStats(), doc2.ComputeStats()
		if s1.Elements != s2.Elements || s1.MaxDepth != s2.MaxDepth {
			t.Fatalf("round trip changed shape: %+v vs %+v (%q -> %q)", s1, s2, src, out)
		}
		// Serialization must be a fixpoint: reparsing the output and
		// serializing again may not change a byte. This is what catches
		// lossy escaping — a literal "\r" written raw comes back as "\n".
		if out2 := doc2.XMLString(); out2 != out {
			t.Fatalf("round trip changed serialization: %q -> %q (src %q)", out, out2, src)
		}
		if !equalTree(doc.Root, doc2.Root) {
			t.Fatalf("round trip changed tree content (%q -> %q)", src, out)
		}
		// Indented serialization must reparse to the same tree too: the
		// writer may only insert whitespace where the parser drops it
		// (between element-only children, never adjacent to text).
		var ib strings.Builder
		if err := doc.WriteXML(&ib, true); err != nil {
			t.Fatalf("indented write of %q: %v", src, err)
		}
		ind := ib.String()
		doc3, err := ParseString(ind)
		if err != nil {
			t.Fatalf("accepted %q but rejected its indented serialization %q: %v", src, ind, err)
		}
		if !equalTree(doc.Root, doc3.Root) {
			t.Fatalf("indented round trip changed tree content (%q -> %q)", src, ind)
		}
		var ib2 strings.Builder
		_ = doc3.WriteXML(&ib2, true)
		if ib2.String() != ind {
			t.Fatalf("indented round trip changed serialization: %q -> %q (src %q)", ind, ib2.String(), src)
		}
	})
}

// FuzzParseMatchesReference holds ParseWithLimits, the tree built from
// ParseInto's walk, to parseReference, the Token loop it replaced: for any
// input and limits both fail with the same error, or both accept and build
// equal trees, node ids, positions and depths included. Zero limits are
// unlimited.
func FuzzParseMatchesReference(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s, 0, 0, int64(0))
	}
	for _, s := range []string{
		"<a></b>", "<p:a></q:a>", "<p:a></a>", "<a></p:a>", "</a>", "<a/></a>",
		"<a><b>", "<a>x", "<a>&foo;</a>", "\ufeff<a/>", "<a>\n<b>\n</a>",
	} {
		f.Add(s, 0, 0, int64(0))
	}
	// Documents exactly at each limit, and one past it.
	at := "<a><b>x</b>y<c><d/></c></a>"
	for _, k := range []int{0, 1} {
		f.Add(at, 3-k, 0, int64(0))
		f.Add(at, 0, 6-k, int64(0))
		f.Add(at, 0, 0, int64(len(at)-k))
	}
	f.Fuzz(func(t *testing.T, src string, depth, nodes int, maxBytes int64) {
		lim := ParseLimits{MaxDepth: depth, MaxNodes: nodes, MaxBytes: maxBytes}
		got, gerr := ParseStringWithLimits(src, lim)
		want, werr := parseReference(strings.NewReader(src), lim)
		if gerr != nil || werr != nil {
			if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("%q under %+v: error %v, reference %v", src, lim, gerr, werr)
			}
			var gle, wle *LimitError
			if errors.As(gerr, &gle) != errors.As(werr, &wle) {
				t.Fatalf("%q under %+v: error %T, reference %T", src, lim, gerr, werr)
			}
			return
		}
		if diff := treeDiff(got, want); diff != "" {
			t.Fatalf("%q under %+v: %s", src, lim, diff)
		}
	})
}

// treeDiff describes the first difference between two documents, node by
// node in id order, or returns "" when they are equal.
func treeDiff(got, want *Document) string {
	if got.NumNodes() != want.NumNodes() {
		return fmt.Sprintf("%d nodes, want %d", got.NumNodes(), want.NumNodes())
	}
	if got.Root.ID != want.Root.ID {
		return fmt.Sprintf("root id %d, want %d", got.Root.ID, want.Root.ID)
	}
	id := func(n *Node) int {
		if n == nil {
			return -1
		}
		return n.ID
	}
	for i := 0; i < got.NumNodes(); i++ {
		g, w := got.NodeByID(i), want.NodeByID(i)
		if g.ID != w.ID || g.Kind != w.Kind || g.Label != w.Label || g.Data != w.Data ||
			g.Pos != w.Pos || g.Depth != w.Depth || id(g.Parent) != id(w.Parent) {
			return fmt.Sprintf("node %d is %+v, want %+v", i, *g, *w)
		}
		if fmt.Sprint(IDsOf(g.Children)) != fmt.Sprint(IDsOf(w.Children)) {
			return fmt.Sprintf("node %d has children %v, want %v", i, IDsOf(g.Children), IDsOf(w.Children))
		}
	}
	return ""
}
