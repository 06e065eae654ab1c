package colstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"smoqe/internal/datagen"
	"smoqe/internal/failpoint"
	"smoqe/internal/hospital"
	"smoqe/internal/xmltree"
)

// checkEquivalent verifies every column of cd against the pointer tree d:
// preorder ids, labels, text, subtree intervals and the derived columns.
func checkEquivalent(t *testing.T, d *xmltree.Document, cd *Document) {
	t.Helper()
	if cd.NumNodes() != d.NumNodes() {
		t.Fatalf("NumNodes = %d, want %d", cd.NumNodes(), d.NumNodes())
	}
	id := int32(0)
	var rec func(n *xmltree.Node, parent int32) int32
	rec = func(n *xmltree.Node, parent int32) int32 {
		my := id
		id++
		if got, want := cd.IsElement(my), n.Kind == xmltree.Element; got != want {
			t.Fatalf("node %d: IsElement = %v, want %v (%s)", my, got, want, n.Path())
		}
		if got := cd.Label(my); got != n.Label {
			t.Fatalf("node %d: Label = %q, want %q", my, got, n.Label)
		}
		if n.Kind == xmltree.Text {
			if got := cd.Text(my); got != n.Data {
				t.Fatalf("node %d: Text = %q, want %q", my, got, n.Data)
			}
		} else if got := cd.Text(my); got != n.TextContent() {
			t.Fatalf("node %d: element Text = %q, want %q", my, got, n.TextContent())
		}
		if got := cd.Parent(my); got != parent {
			t.Fatalf("node %d: Parent = %d, want %d", my, got, parent)
		}
		if got := cd.Depth(my); int(got) != n.Depth {
			t.Fatalf("node %d: Depth = %d, want %d", my, got, n.Depth)
		}
		if got := cd.Pos(my); int(got) != n.Pos {
			t.Fatalf("node %d: Pos = %d, want %d", my, got, n.Pos)
		}
		for _, c := range n.Children {
			rec(c, my)
		}
		if got := cd.End(my); got != id-1 {
			t.Fatalf("node %d: End = %d, want %d", my, got, id-1)
		}
		return my
	}
	rec(d.Root, -1)

	// The cursor view must agree with the columns.
	cur := cd.At(0)
	for i := int32(0); i < int32(cd.NumNodes()); i++ {
		cur.Seek(i)
		if cur.TextContent() != cd.Text(i) || int32(cur.ElemPos()) != cd.Pos(i) {
			t.Fatalf("cursor at %d disagrees with columns", i)
		}
	}
}

func TestFromTreeEquivalence(t *testing.T) {
	docs := map[string]*xmltree.Document{
		"datagen-40":  datagen.Generate(datagen.DefaultConfig(40)),
		"datagen-300": datagen.Generate(datagen.DefaultConfig(300)),
	}
	for _, src := range []string{
		`<a/>`,
		`<a>x<b/>y<b>z</b></a>`,
		`<a><b><c><d>deep</d></c></b><b/>tail</a>`,
	} {
		d, err := xmltree.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		docs[src] = d
	}
	for name, d := range docs {
		cd := FromTree(d)
		checkEquivalent(t, d, cd)
		// Tree() materializes the identical pointer tree.
		back := cd.Tree()
		if back.XMLString() != d.XMLString() {
			t.Fatalf("%s: Tree() round trip changed serialization", name)
		}
		s1, s2 := d.ComputeStats(), cd.Stats()
		if s1.Elements != s2.Elements || s1.Texts != s2.Texts || s1.MaxDepth != s2.MaxDepth {
			t.Fatalf("%s: Stats = %+v, want %+v", name, s2, s1)
		}
		for l, c := range s1.LabelCounts {
			if s2.LabelCounts[l] != c {
				t.Fatalf("%s: LabelCounts[%q] = %d, want %d", name, l, s2.LabelCounts[l], c)
			}
		}
	}
}

// TestSnapshotRoundTrip checks save→load→save is byte-identical and the
// loaded document is column-for-column the one saved.
func TestSnapshotRoundTrip(t *testing.T) {
	d := datagen.Generate(datagen.DefaultConfig(120))
	cd := FromTree(d)
	var buf1 bytes.Buffer
	if err := cd.WriteSnapshot(&buf1); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, d, loaded)
	var buf2 bytes.Buffer
	if err := loaded.WriteSnapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("save→load→save not byte-identical: %d vs %d bytes", buf1.Len(), buf2.Len())
	}
}

func TestSnapshotFile(t *testing.T) {
	d, err := xmltree.ParseString(`<a>x<b>y</b><c><d/></c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/doc" + FileExt
	if err := FromTree(d).Save(path); err != nil {
		t.Fatal(err)
	}
	cd, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, d, cd)
}

// TestSnapshotRejectsCorruption flips every byte of a valid snapshot in
// turn; every mutation must be rejected (by magic, version, structural
// validation or the checksum) — never loaded silently.
func TestSnapshotRejectsCorruption(t *testing.T) {
	d, err := xmltree.ParseString(`<a>x<b>y</b><c><d/>z</c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := FromTree(d).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for i := range orig {
		mut := append([]byte(nil), orig...)
		mut[i] ^= 0xff
		if _, err := ReadSnapshot(bytes.NewReader(mut)); err == nil {
			t.Fatalf("byte %d flipped: snapshot accepted", i)
		}
	}
	// Truncations must be rejected too.
	for _, n := range []int{0, 4, 8, len(orig) / 2, len(orig) - 1} {
		if _, err := ReadSnapshot(bytes.NewReader(orig[:n])); err == nil {
			t.Fatalf("truncation to %d bytes: snapshot accepted", n)
		}
	}
}

// TestSnapshotTruncationReportsWhereInputEnded: a truncated field is
// reported at the offset where it starts, with the bytes of it that were
// read, so offset plus "have" is the input's length: for a body shorter
// than the magic, and for a column cut past its first 64 KiB chunk.
func TestSnapshotTruncationReportsWhereInputEnded(t *testing.T) {
	d, err := xmltree.ParseString("<a>" + strings.Repeat("<b/>", 60000) + "</a>")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := FromTree(d).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	for _, in := range [][]byte{[]byte("garbage"), buf.Bytes()[:100000]} {
		_, err := ReadSnapshot(bytes.NewReader(in))
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("%d-byte input: err = %v, want a *FormatError", len(in), err)
		}
		var want, have int64
		if _, serr := fmt.Sscanf(fe.Reason, "truncated input: want %d bytes, have %d", &want, &have); serr != nil {
			t.Fatalf("%d-byte input: %v is not a truncation (%v)", len(in), err, serr)
		}
		if fe.Offset+have != int64(len(in)) || have >= want {
			t.Errorf("%d-byte input: %v; want offset plus have = %d", len(in), err, len(in))
		}
	}
}

func TestSnapshotFailpoints(t *testing.T) {
	defer failpoint.DisableAll()
	d, _ := xmltree.ParseString(`<a/>`)
	cd := FromTree(d)
	if err := failpoint.Enable(failpoint.SiteSnapshotWrite, "error"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := cd.WriteSnapshot(&buf)
	var fe *failpoint.Error
	if !errors.As(err, &fe) {
		t.Fatalf("WriteSnapshot with armed failpoint: err = %v", err)
	}
	failpoint.Disable(failpoint.SiteSnapshotWrite)
	if err := cd.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable(failpoint.SiteSnapshotRead, "error"); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes())); !errors.As(err, &fe) {
		t.Fatalf("ReadSnapshot with armed failpoint: err = %v", err)
	}
}

// TestPathMatchesNodePath: the columnar path of every node — elements,
// text nodes, mixed content, and a document read back from its snapshot —
// is byte-identical to the pointer tree's Node.Path, asked one node at a
// time, for all nodes at once, and for sorted random subsets.
func TestPathMatchesNodePath(t *testing.T) {
	mixed, err := xmltree.ParseString(`<a>x<b/>y<b>z<c/>w</b><c/>v<b><b/></b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]*xmltree.Document{
		"sample":  hospital.SampleDocument(),
		"datagen": datagen.Generate(datagen.DefaultConfig(40)),
		"mixed":   mixed,
	}
	for name, d := range docs {
		cd := FromTree(d)
		var buf bytes.Buffer
		if err := cd.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, form := range []struct {
			name string
			cd   *Document
		}{{"built", cd}, {"snapshot", loaded}} {
			all := make([]int, d.NumNodes())
			for id := range all {
				all[id] = id
				if got, want := form.cd.Path(int32(id)), d.NodeByID(id).Path(); got != want {
					t.Fatalf("%s (%s): node %d: Path = %q, want %q", name, form.name, id, got, want)
				}
			}
			rng := rand.New(rand.NewSource(int64(len(all))))
			subsets := [][]int{all}
			for k := 0; k < 20; k++ {
				var sub []int
				for _, id := range all {
					if rng.Intn(1+k) == 0 {
						sub = append(sub, id)
					}
				}
				subsets = append(subsets, sub)
			}
			for _, ids := range subsets {
				for i, got := range form.cd.Paths(ids) {
					if want := d.NodeByID(ids[i]).Path(); got != want {
						t.Fatalf("%s (%s): Paths of %d ids: node %d: %q, want %q", name, form.name, len(ids), ids[i], got, want)
					}
				}
			}
		}
	}
}
