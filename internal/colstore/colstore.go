// Package colstore provides the columnar document representation of ROADMAP
// item 1: a document is a set of flat preorder arrays — interned label IDs,
// subtree-end intervals, parent/depth/position columns, and text offsets
// into a single character arena — instead of a pointer tree. Every XPath
// axis then reduces to integer range comparisons over the preorder/interval
// encoding (children of n are c := n+1; c <= End(n); c = End(c)+1, the
// descendants of n are exactly (n, End(n)]), traversal is memory-bandwidth-
// bound rather than pointer-chase-bound, and the whole document serializes
// to a versioned binary snapshot (see snapshot.go) that loads in O(read).
//
// A Document is immutable after construction; clones of evaluation engines
// share it — columns and arena included — zero-copy across goroutines.
package colstore

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"smoqe/internal/xmltree"
)

// Document is an immutable columnar XML document. All per-node columns are
// indexed by preorder id; node 0 is the root element. Text nodes carry
// label id -1 and their character data as an arena slice; element nodes
// carry the concatenation of their direct text children as their arena
// slice, so text()='c' predicates never concatenate at query time.
type Document struct {
	// labels is the interned element label table, in first-occurrence
	// preorder order; label ids index it.
	labels   []string
	labelIDs map[string]int32

	label   []int32 // per node: label id, or -1 for a text node
	end     []int32 // per node: preorder id of the last node in its subtree
	parent  []int32 // per node: parent id, -1 for the root
	depth   []int32 // per node: edges from the root
	pos     []int32 // per node: 1-based ordinal among same-kind siblings
	textOff []int32 // per node: arena offset of its text (see Document doc)
	textLen []int32 // per node: arena byte length of its text
	arena   string  // all character data, grouped by owning element
}

// FromTree builds the columnar form of d. The construction is deterministic:
// labels are interned in first-occurrence preorder order and the arena is
// written grouped by owning element in preorder, so two structurally equal
// trees produce byte-identical columns (and therefore byte-identical
// snapshots). Documents are capped at MaxInt32 nodes and arena bytes — far
// beyond what a pointer tree could hold in memory anyway.
func FromTree(d *xmltree.Document) *Document {
	if d.Root == nil {
		panic("colstore: FromTree on document without root")
	}
	cd, _ := fromNode(d.Root, false)
	return cd
}

// FromNode builds the columnar form of n's subtree, with n as its root,
// and returns the subtree's nodes in preorder: node i of the result is
// nodes[i]. An evaluation at an arbitrary tree node runs on the result and
// maps its answers back through nodes.
func FromNode(n *xmltree.Node) (cd *Document, nodes []*xmltree.Node) {
	return fromNode(n, true)
}

func fromNode(n *xmltree.Node, keepNodes bool) (*Document, []*xmltree.Node) {
	b := &builder{cd: &Document{labelIDs: make(map[string]int32)}, keepNodes: keepNodes}
	b.build(n, -1, 0, 1)
	b.cd.arena = string(b.arena)
	return b.cd, b.nodes
}

// builder accumulates the arena as a byte slice during construction; the
// finished Document holds it as an immutable string. With keepNodes it
// also records the source node of every preorder id.
type builder struct {
	cd        *Document
	arena     []byte
	keepNodes bool
	nodes     []*xmltree.Node
}

// build appends node n (and its subtree) to the columns and returns n's
// preorder id. parent/depth/pos are derived structurally, not copied, so
// the columns are canonical for the tree shape.
func (b *builder) build(n *xmltree.Node, parent int32, depth, pos int32) int32 {
	cd := b.cd
	id := cd.newNode(parent, depth, pos)
	cd.label[id] = cd.intern(n.Label)
	if b.keepNodes {
		b.nodes = append(b.nodes, n)
	}

	// The element's text region: its direct text children, concatenated.
	// Each text child's own slice lands inside this region, so both the
	// element and its text children read straight out of the arena.
	start := len(b.arena)
	for _, c := range n.Children {
		if c.Kind == xmltree.Text {
			b.arena = append(b.arena, c.Data...)
		}
	}
	if len(b.arena) > math.MaxInt32 {
		panic("colstore: document text exceeds 2 GiB arena limit")
	}
	cd.textOff[id] = int32(start)
	cd.textLen[id] = int32(len(b.arena) - start)

	textOff := int32(start)
	elemPos, textPos := int32(0), int32(0)
	for _, c := range n.Children {
		if c.Kind == xmltree.Text {
			textPos++
			tid := cd.newNode(id, depth+1, textPos)
			if b.keepNodes {
				b.nodes = append(b.nodes, c)
			}
			cd.label[tid] = -1
			cd.textOff[tid] = textOff
			cd.textLen[tid] = int32(len(c.Data))
			cd.end[tid] = tid
			textOff += int32(len(c.Data))
			continue
		}
		elemPos++
		b.build(c, id, depth+1, elemPos)
	}
	cd.end[id] = int32(len(cd.label)) - 1
	return id
}

func (cd *Document) newNode(parent int32, depth, pos int32) int32 {
	if len(cd.label) >= math.MaxInt32 {
		panic("colstore: document exceeds 2^31-1 nodes")
	}
	id := int32(len(cd.label))
	cd.label = append(cd.label, 0)
	cd.end = append(cd.end, 0)
	cd.parent = append(cd.parent, parent)
	cd.depth = append(cd.depth, depth)
	cd.pos = append(cd.pos, pos)
	cd.textOff = append(cd.textOff, 0)
	cd.textLen = append(cd.textLen, 0)
	return id
}

func (cd *Document) intern(label string) int32 {
	if id, ok := cd.labelIDs[label]; ok {
		return id
	}
	id := int32(len(cd.labels))
	cd.labels = append(cd.labels, label)
	cd.labelIDs[label] = id
	return id
}

// NumNodes returns the total number of nodes (elements and text).
func (cd *Document) NumNodes() int { return len(cd.label) }

// NumLabels returns the number of distinct element labels.
func (cd *Document) NumLabels() int { return len(cd.labels) }

// ArenaSize returns the number of character-data bytes.
func (cd *Document) ArenaSize() int { return len(cd.arena) }

// IsElement reports whether node n is an element.
func (cd *Document) IsElement(n int32) bool { return cd.label[n] >= 0 }

// LabelID returns node n's interned label id, or -1 for a text node.
func (cd *Document) LabelID(n int32) int32 { return cd.label[n] }

// Label returns node n's element label ("" for a text node).
func (cd *Document) Label(n int32) string {
	if id := cd.label[n]; id >= 0 {
		return cd.labels[id]
	}
	return ""
}

// LabelIDOf returns the interned id of label, or ok=false when no node of
// the document carries it (an automaton transition on such a label can
// never fire here).
func (cd *Document) LabelIDOf(label string) (int32, bool) {
	id, ok := cd.labelIDs[label]
	return id, ok
}

// Labels returns the interned label table; the caller must not modify it.
func (cd *Document) Labels() []string { return cd.labels }

// End returns the preorder id of the last node in n's subtree (n itself for
// a leaf): n's descendants are exactly the ids in (n, End(n)].
func (cd *Document) End(n int32) int32 { return cd.end[n] }

// Parent returns n's parent id, or -1 for the root.
func (cd *Document) Parent(n int32) int32 { return cd.parent[n] }

// Depth returns the number of edges from the root to n.
func (cd *Document) Depth(n int32) int32 { return cd.depth[n] }

// Pos returns n's 1-based ordinal among its same-kind siblings (element
// ordinal for elements, text ordinal for text nodes), matching
// xmltree.Node.Pos.
func (cd *Document) Pos(n int32) int32 { return cd.pos[n] }

// Text returns node n's character data: its own data for a text node, the
// concatenation of its direct text children for an element. The result is
// a zero-copy slice of the arena.
func (cd *Document) Text(n int32) string {
	off := cd.textOff[n]
	return cd.arena[off : off+cd.textLen[n]]
}

// Path returns n's slash path from the root, like /hospital[1]/patient[2]:
// each element step carries its 1-based position among the element
// siblings with the same label, and a text node's step is text(). It is
// byte-identical to xmltree.Node.Path of the node.
func (cd *Document) Path(n int32) string { return cd.Paths([]int{int(n)})[0] }

// Paths returns the Path of every node of ids, which must be in document
// order, as answers are. It keeps the chain of ancestors of the last node
// and, for each, how far its children have been counted, so it scans each
// parent's children at most once: the work is linear in the children
// scanned and the paths written.
func (cd *Document) Paths(ids []int) []string {
	out := make([]string, len(ids))
	var (
		stack []pathFrame
		buf   []byte
		chain []int32
		// Same-label child counts of the frames on the stack, one slot
		// per label: a slot belongs to the frame whose id is in its
		// stamp, and a frame saves what it overwrites in undo, so popping
		// it restores its ancestors' counts.
		counts, stamps []int32
		undo           []pathUndo
		serial         int32
	)
	for i, id := range ids {
		n := int32(id)
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.node <= n && n <= cd.end[f.node] {
				break
			}
			for len(undo) > f.undo {
				u := undo[len(undo)-1]
				counts[u.label], stamps[u.label] = u.count, u.stamp
				undo = undo[:len(undo)-1]
			}
			stack = stack[:len(stack)-1]
		}
		buf = buf[:0]
		if len(stack) > 0 {
			buf = buf[:stack[len(stack)-1].pathLen]
		}
		// The ancestors-or-self of n below the stack's top, deepest first.
		chain = chain[:0]
		for c := n; c >= 0 && (len(stack) == 0 || c != stack[len(stack)-1].node); c = cd.parent[c] {
			chain = append(chain, c)
		}
		for j := len(chain) - 1; j >= 0; j-- {
			c := chain[j]
			lab := cd.label[c]
			buf = append(buf, '/')
			if lab < 0 {
				buf = append(buf, "text()"...)
			} else {
				idx := int32(1)
				if len(stack) > 0 {
					if counts == nil {
						counts, stamps = make([]int32, len(cd.labels)), make([]int32, len(cd.labels))
					}
					// Count the parent's children up to and including c.
					f := &stack[len(stack)-1]
					for x := f.next; x <= c; x = cd.end[x] + 1 {
						if l := cd.label[x]; l >= 0 {
							if stamps[l] != f.id {
								undo = append(undo, pathUndo{label: l, count: counts[l], stamp: stamps[l]})
								counts[l], stamps[l] = 0, f.id
							}
							counts[l]++
						}
					}
					f.next = cd.end[c] + 1
					idx = counts[lab]
				}
				buf = append(buf, cd.labels[lab]...)
				buf = append(buf, '[')
				buf = strconv.AppendInt(buf, int64(idx), 10)
				buf = append(buf, ']')
			}
			serial++
			stack = append(stack, pathFrame{node: c, next: c + 1, id: serial, undo: len(undo), pathLen: len(buf)})
		}
		out[i] = string(buf)
	}
	return out
}

// pathFrame is one ancestor on Paths' stack: the first of its children
// not yet counted, the stamp of its counts, the undo entries below its
// own, and the length of its path.
type pathFrame struct {
	node, next, id int32
	undo, pathLen  int
}

// pathUndo is a count slot as it was before a frame took it over.
type pathUndo struct{ label, count, stamp int32 }

// Cursor is a positioned read pointer over a Document implementing
// mfa.NodeView, so AFA predicate evaluation runs on the columns without
// materializing nodes. One cursor is reused for a whole evaluation run
// (Seek repositions it), keeping the interface conversion allocation-free.
type Cursor struct {
	d  *Document
	id int32
}

// At returns a cursor positioned at node id.
func (cd *Document) At(id int32) *Cursor { return &Cursor{d: cd, id: id} }

// Seek repositions the cursor.
func (c *Cursor) Seek(id int32) { c.id = id }

// ID returns the cursor's current node id.
func (c *Cursor) ID() int32 { return c.id }

// TextContent implements mfa.NodeView.
func (c *Cursor) TextContent() string { return c.d.Text(c.id) }

// ElemPos implements mfa.NodeView.
func (c *Cursor) ElemPos() int { return int(c.d.pos[c.id]) }

// Tree materializes the columnar document back into a pointer tree. Nodes
// are created in preorder, so xmltree IDs equal preorder ids and
// Tree().XMLString() of a FromTree round trip is byte-identical to the
// original document's.
func (cd *Document) Tree() *xmltree.Document {
	d := xmltree.NewDocument(cd.Label(0))
	var rec func(n int32, into *xmltree.Node)
	rec = func(n int32, into *xmltree.Node) {
		for c := n + 1; c <= cd.end[n]; c = cd.end[c] + 1 {
			if cd.label[c] < 0 {
				d.AddText(into, cd.Text(c))
				continue
			}
			child := d.AddElement(into, cd.labels[cd.label[c]])
			rec(c, child)
		}
	}
	rec(0, d.Root)
	return d
}

// Stats computes the document's shape summary directly from the columns.
func (cd *Document) Stats() xmltree.Stats {
	st := xmltree.Stats{LabelCounts: make(map[string]int)}
	for i := range cd.label {
		if int(cd.depth[i]) > st.MaxDepth {
			st.MaxDepth = int(cd.depth[i])
		}
		if id := cd.label[i]; id >= 0 {
			st.Elements++
			st.LabelCounts[cd.labels[id]]++
		} else {
			st.Texts++
		}
	}
	return st
}

// nesting returns node n's element nesting, the depth
// xmltree.ParseLimits.MaxDepth bounds: the root element counts 1, each
// element one more than its parent, and a text node 0 (text does not nest).
func (cd *Document) nesting(n int) int {
	if cd.label[n] < 0 {
		return 0
	}
	return int(cd.depth[n]) + 1
}

// ElementDepth returns the document's deepest element nesting (the root
// counts 1, text nodes do not count): the figure CheckLimits compares with
// xmltree.ParseLimits.MaxDepth. Stats().MaxDepth counts edges from the
// root instead, text nodes included.
func ElementDepth(cd *Document) int {
	depth := 0
	for i := range cd.label {
		depth = max(depth, cd.nesting(i))
	}
	return depth
}

// CheckLimits refuses a document beyond lim's depth or node bound, with
// the meaning xmltree.ParseWithLimits gives them: depth is element
// nesting (see ElementDepth); nodes are elements plus text. It holds a
// snapshot to the bounds the parser holds XML to. MaxBytes bounds raw XML
// and is not checked here. The error is a *xmltree.LimitError for the
// bound preorder exceeds first, as in the parser.
func CheckLimits(cd *Document, lim xmltree.ParseLimits) error {
	for i := range cd.label {
		if lim.MaxDepth > 0 && cd.nesting(i) > lim.MaxDepth {
			return &xmltree.LimitError{What: xmltree.LimitDepth, Limit: int64(lim.MaxDepth)}
		}
		if lim.MaxNodes > 0 && i >= lim.MaxNodes {
			return &xmltree.LimitError{What: xmltree.LimitNodes, Limit: int64(lim.MaxNodes)}
		}
	}
	return nil
}

// Decode reads one document from r into columns, held to lim: the one
// decoder of outside bytes, which the server's intake and the corpus
// indexer both call. A snapshot is read with ReadSnapshot and then held to
// the depth and node bounds with CheckLimits; XML is parsed under every
// bound with xmltree.ParseWithLimits and converted, and the tree dropped.
// A bound exceeded is a *xmltree.LimitError.
func Decode(r io.Reader, snapshot bool, lim xmltree.ParseLimits) (*Document, error) {
	if snapshot {
		cd, err := ReadSnapshot(r)
		if err != nil {
			return nil, err
		}
		if err := CheckLimits(cd, lim); err != nil {
			return nil, err
		}
		return cd, nil
	}
	d, err := xmltree.ParseWithLimits(r, lim)
	if err != nil {
		return nil, err
	}
	return FromTree(d), nil
}

// validate checks the structural invariants a loaded snapshot must satisfy
// before the columns are trusted, and (re)derives parent, depth and pos —
// the derived columns are not stored (see snapshot.go).
func (cd *Document) validate() error {
	n := int32(len(cd.label))
	if n == 0 {
		return fmt.Errorf("colstore: empty document")
	}
	if cd.label[0] < 0 {
		return fmt.Errorf("colstore: root is a text node")
	}
	if cd.end[0] != n-1 {
		return fmt.Errorf("colstore: root subtree [0,%d] does not cover all %d nodes", cd.end[0], n)
	}
	arenaLen := int32(len(cd.arena))
	for i := int32(0); i < n; i++ {
		if l := cd.label[i]; l < -1 || int(l) >= len(cd.labels) {
			return fmt.Errorf("colstore: node %d: label id %d out of range", i, l)
		}
		if cd.end[i] < i || cd.end[i] >= n {
			return fmt.Errorf("colstore: node %d: subtree end %d out of range", i, cd.end[i])
		}
		if cd.label[i] < 0 && cd.end[i] != i {
			return fmt.Errorf("colstore: node %d: text node with children", i)
		}
		off, ln := cd.textOff[i], cd.textLen[i]
		if off < 0 || ln < 0 || off > arenaLen || ln > arenaLen-off {
			return fmt.Errorf("colstore: node %d: text [%d,+%d) outside arena of %d bytes", i, off, ln, arenaLen)
		}
	}
	// One pass with an interval stack: every node's interval must nest in
	// its parent's; parent/depth/pos fall out of the same walk.
	cd.parent = make([]int32, n)
	cd.depth = make([]int32, n)
	cd.pos = make([]int32, n)
	type frame struct {
		id         int32
		elem, text int32 // same-kind child ordinals handed out so far
	}
	stack := make([]frame, 0, 32)
	for i := int32(0); i < n; i++ {
		for len(stack) > 0 && i > cd.end[stack[len(stack)-1].id] {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			if i != 0 {
				return fmt.Errorf("colstore: node %d outside the root's subtree", i)
			}
			cd.parent[0], cd.depth[0], cd.pos[0] = -1, 0, 1
		} else {
			top := &stack[len(stack)-1]
			if cd.end[i] > cd.end[top.id] {
				return fmt.Errorf("colstore: node %d: subtree end %d escapes parent %d (end %d)", i, cd.end[i], top.id, cd.end[top.id])
			}
			cd.parent[i] = top.id
			cd.depth[i] = cd.depth[top.id] + 1
			if cd.label[i] >= 0 {
				top.elem++
				cd.pos[i] = top.elem
			} else {
				top.text++
				cd.pos[i] = top.text
			}
		}
		if cd.label[i] >= 0 {
			stack = append(stack, frame{id: i})
		} else if cd.end[i] != i {
			return fmt.Errorf("colstore: node %d: text node with subtree", i)
		}
	}
	return nil
}
