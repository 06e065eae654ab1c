package xmltree

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"smoqe/internal/failpoint"
)

// Parse reads an XML document from r into a Document. Attributes, comments,
// processing instructions and the XML declaration are skipped; whitespace-only
// text between elements is dropped (it never carries data in the SMOQE data
// model), while any other character data becomes a Text node. Whitespace that
// is part of a significant text run — including runs split into several
// chunks by comment or CDATA boundaries — is preserved.
func Parse(r io.Reader) (*Document, error) {
	return ParseWithLimits(r, ParseLimits{})
}

// ParseWithLimits is Parse with input caps: parsing stops with a *LimitError
// as soon as the document exceeds lim's depth, node-count or byte bound (zero
// fields are unlimited), so oversized or hostile inputs are refused early
// instead of loaded until memory runs out. It builds the tree from ParseInto.
func ParseWithLimits(r io.Reader, lim ParseLimits) (*Document, error) {
	t := &treeBuilder{}
	if err := ParseInto(r, lim, t); err != nil {
		return nil, err
	}
	return t.d, nil
}

// Builder receives a document from ParseInto node by node, in document
// order: each element as it opens and as it closes, and each text node once
// its character data is complete. The data-model rules are already applied,
// so a builder only lays the nodes out.
type Builder interface {
	// Element opens an element labeled label as the last child of the
	// innermost open element, or as the root when none is open.
	Element(label string)
	// End closes the innermost open element.
	End()
	// Text adds a text node, never empty, as the last child of the
	// innermost open element. data is valid only during the call.
	Text(data []byte)
}

// ParseInto reads one XML document from r under lim and hands its nodes to
// b: the one walk every XML intake runs. ParseWithLimits builds a tree from
// it and colstore.Decode builds columns. It applies the rules Parse
// documents: comments, directives and processing instructions are skipped,
// whitespace-only character data between elements is dropped, adjacent
// character data merges into one text node, and the document has exactly
// one root element and no character data outside it. Depth is checked at
// each start tag and the node count after each node; both fail with a
// *LimitError, as does input beyond lim.MaxBytes. On error b holds a
// partial document and must be discarded.
//
// The walk reads raw tokens: SMOQE labels are local names, so the
// decoder's namespace translation is never needed. It matches end tags
// itself and fails on a mismatch with the *xml.SyntaxError text
// encoding/xml's Token gives.
func ParseInto(r io.Reader, lim ParseLimits, b Builder) error {
	if err := failpoint.Inject(failpoint.SiteXMLTreeParse); err != nil {
		return fmt.Errorf("xmltree: parse: %w", err)
	}
	if lim.MaxBytes > 0 {
		// One slack byte: the error must fire only when the input is
		// strictly larger than the cap, not on the EOF probe after a
		// document of exactly MaxBytes.
		r = &limitReader{r: r, n: lim.MaxBytes + 1, max: lim.MaxBytes}
	}
	dec := xml.NewDecoder(r)
	var (
		open   []xml.Name // open elements, innermost last
		rooted bool       // the root element has opened
		nodes  int
		// text is the data of an open text node: the innermost open
		// element's last child, while inText. It is handed to b at the
		// next tag, once no more character data can join it.
		text   []byte
		inText bool
		// ws holds a run of whitespace-only character data whose fate is
		// still open: encoding/xml splits one logical text run into
		// several CharData tokens at comment/CDATA boundaries, so
		// "a<!--c--> <!--c-->b" arrives as "a", " ", "b". Whitespace
		// between elements is dropped, but a whitespace-only chunk
		// adjacent to significant text is part of that text and must be
		// kept. The decision waits for the next tag (drop) or the next
		// significant chunk (merge).
		ws []byte
	)
	syntaxError := func(msg string) error {
		line, _ := dec.InputPos()
		return fmt.Errorf("xmltree: parse: %w", &xml.SyntaxError{Msg: msg, Line: line})
	}
	for {
		tok, err := dec.RawToken()
		if err == io.EOF {
			if len(open) > 0 {
				return syntaxError("unexpected EOF")
			}
			break
		}
		if err != nil {
			return fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			ws = ws[:0]
			if inText {
				b.Text(text)
				text, inText = text[:0], false
			}
			if lim.MaxDepth > 0 && len(open)+1 > lim.MaxDepth {
				return &LimitError{What: LimitDepth, Limit: int64(lim.MaxDepth)}
			}
			if len(open) == 0 {
				if rooted {
					return fmt.Errorf("xmltree: parse: multiple root elements (second: <%s>)", t.Name.Local)
				}
				rooted = true
			}
			open = append(open, t.Name)
			nodes++
			b.Element(t.Name.Local)
		case xml.EndElement:
			ws = ws[:0]
			if len(open) == 0 {
				return syntaxError("unexpected end element </" + t.Name.Local + ">")
			}
			top := open[len(open)-1]
			if top.Local != t.Name.Local {
				return syntaxError("element <" + top.Local + "> closed by </" + t.Name.Local + ">")
			}
			if top.Space != t.Name.Space {
				space := t.Name.Space
				if space == "" {
					space = `""`
				}
				return syntaxError("element <" + top.Local + "> in space " + top.Space +
					" closed by </" + t.Name.Local + "> in space " + space)
			}
			if inText {
				b.Text(text)
				text, inText = text[:0], false
			}
			open = open[:len(open)-1]
			b.End()
		case xml.CharData:
			if len(bytes.TrimSpace(t)) == 0 {
				switch {
				case len(open) == 0:
					// Outside the root element: dropped.
				case inText:
					// Directly follows significant text (only comments
					// or CDATA boundaries in between): it belongs to it.
					text = append(text, t...)
				default:
					ws = append(ws, t...)
				}
				continue
			}
			if len(open) == 0 {
				return fmt.Errorf("xmltree: parse: character data outside root element")
			}
			if !inText {
				inText = true
				nodes++
			}
			text = append(append(text, ws...), t...)
			ws = ws[:0]
		default:
			// Comments, directives and processing instructions are ignored.
			continue
		}
		if lim.MaxNodes > 0 && nodes > lim.MaxNodes {
			return &LimitError{What: LimitNodes, Limit: int64(lim.MaxNodes)}
		}
	}
	if !rooted {
		return fmt.Errorf("xmltree: parse: empty document")
	}
	return nil
}

// treeBuilder is the Builder behind ParseWithLimits: it links each node
// into the document as it arrives, so node ids are preorder. The root
// element creates the document.
type treeBuilder struct {
	d    *Document
	open []*Node // open elements, innermost last
}

func (t *treeBuilder) Element(label string) {
	if t.d == nil {
		t.d = NewDocument(label)
		t.open = append(t.open, t.d.Root)
		return
	}
	t.open = append(t.open, t.d.AddElement(t.open[len(t.open)-1], label))
}

func (t *treeBuilder) End() { t.open = t.open[:len(t.open)-1] }

func (t *treeBuilder) Text(data []byte) { t.d.AddText(t.open[len(t.open)-1], string(data)) }

// ParseString parses an XML document from a string.
func ParseString(s string) (*Document, error) {
	return Parse(strings.NewReader(s))
}

// ParseStringWithLimits parses an XML document from a string with input caps.
func ParseStringWithLimits(s string, lim ParseLimits) (*Document, error) {
	return ParseWithLimits(strings.NewReader(s), lim)
}

// WriteXML serializes the document to w as XML. Text content is escaped.
// If indent is true the output is pretty-printed with two-space indentation;
// any element that contains text — text-only or mixed content — is written
// on one line, so the indented form reparses to the identical tree.
func (d *Document) WriteXML(w io.Writer, indent bool) error {
	bw := &errWriter{w: w}
	if d.Root != nil {
		writeNode(bw, d.Root, indent, 0)
		if indent {
			bw.WriteString("\n")
		}
	}
	return bw.err
}

// XMLString returns the document serialized as a compact XML string.
func (d *Document) XMLString() string {
	var b strings.Builder
	_ = d.WriteXML(&b, false)
	return b.String()
}

// XMLSize returns the number of bytes of the compact XML serialization.
// It is the “document size” axis of the paper’s figures.
func (d *Document) XMLSize() int {
	cw := &countWriter{}
	_ = d.WriteXML(cw, false)
	return cw.n
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) WriteString(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}

type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

func writeNode(w *errWriter, n *Node, indent bool, depth int) {
	if n.Kind == Text {
		w.WriteString(escapeText(n.Data))
		return
	}
	if indent && depth > 0 {
		w.WriteString("\n")
		w.WriteString(strings.Repeat("  ", depth))
	}
	w.WriteString("<")
	w.WriteString(n.Label)
	if len(n.Children) == 0 {
		w.WriteString("/>")
		return
	}
	w.WriteString(">")
	// Indentation is only safe when every child is an element: inserted
	// newlines land between tags, where the parser drops them. As soon as
	// a text child is present — text-only or mixed content — any inserted
	// whitespace would merge into that text on reparse, so the whole child
	// list is written compactly.
	hasText := false
	for _, c := range n.Children {
		if c.Kind == Text {
			hasText = true
			break
		}
	}
	for _, c := range n.Children {
		writeNode(w, c, indent && !hasText, depth+1)
	}
	if indent && !hasText {
		w.WriteString("\n")
		w.WriteString(strings.Repeat("  ", depth))
	}
	w.WriteString("</")
	w.WriteString(n.Label)
	w.WriteString(">")
}

// textEscaper escapes character data. Carriage returns must go out as
// character references: an XML parser normalizes a literal "\r" (and
// "\r\n") to "\n" on input, so only "&#13;" survives a serialize→parse
// round trip (§2.11 of the XML spec).
var textEscaper = strings.NewReplacer(
	"&", "&amp;",
	"<", "&lt;",
	">", "&gt;",
	"\r", "&#13;",
)

func escapeText(s string) string { return textEscaper.Replace(s) }
