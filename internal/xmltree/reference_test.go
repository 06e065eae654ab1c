package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"smoqe/internal/failpoint"
)

// parseReference is ParseWithLimits as it was before ParseInto: one loop
// over encoding/xml's Token that builds the tree directly, leaving end-tag
// matching to the decoder. It is the oracle FuzzParseMatchesReference
// holds ParseInto to.
func parseReference(r io.Reader, lim ParseLimits) (*Document, error) {
	if err := failpoint.Inject(failpoint.SiteXMLTreeParse); err != nil {
		return nil, fmt.Errorf("xmltree: parse: %w", err)
	}
	if lim.MaxBytes > 0 {
		// One slack byte: the error must fire only when the input is
		// strictly larger than the cap, not on the EOF probe after a
		// document of exactly MaxBytes.
		r = &limitReader{r: r, n: lim.MaxBytes + 1, max: lim.MaxBytes}
	}
	dec := xml.NewDecoder(r)
	d := &Document{}
	var stack []*Node
	// pendingWS holds a run of whitespace-only character data whose fate is
	// still open: encoding/xml splits one logical text run into several
	// CharData tokens at comment/CDATA boundaries, so "a<!--c--> <!--c-->b"
	// arrives as "a", " ", "b". Whitespace between elements is still dropped
	// (it never carries data in the SMOQE data model), but a whitespace-only
	// chunk adjacent to significant text is part of that text and must be
	// kept. The decision is deferred until the next element boundary (drop)
	// or the next significant chunk (merge).
	pendingWS := ""
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			pendingWS = ""
			if lim.MaxDepth > 0 && len(stack)+1 > lim.MaxDepth {
				return nil, &LimitError{What: LimitDepth, Limit: int64(lim.MaxDepth)}
			}
			n := &Node{Kind: Element, Label: t.Name.Local}
			if len(stack) == 0 {
				if d.Root != nil {
					return nil, fmt.Errorf("xmltree: parse: multiple root elements (second: <%s>)", t.Name.Local)
				}
				n.Pos = 1
				d.adopt(n)
				d.Root = n
			} else {
				parent := stack[len(stack)-1]
				n.Parent = parent
				n.Pos = nextPos(parent, Element)
				n.Depth = parent.Depth + 1
				d.adopt(n)
				parent.Children = append(parent.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			pendingWS = ""
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: parse: unmatched </%s>", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			data := string(t)
			if strings.TrimSpace(data) == "" {
				if len(stack) == 0 {
					continue
				}
				parent := stack[len(stack)-1]
				if k := len(parent.Children); k > 0 && parent.Children[k-1].Kind == Text {
					// Directly follows significant text (only comments or
					// CDATA boundaries in between): it belongs to that text.
					parent.Children[k-1].Data += data
					continue
				}
				// Fate unknown: keep until the next significant chunk
				// (merge) or element boundary (drop).
				pendingWS += data
				continue
			}
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: parse: character data outside root element")
			}
			data = pendingWS + data
			pendingWS = ""
			parent := stack[len(stack)-1]
			// Merge adjacent character data so the tree has at most one
			// text node between consecutive element children.
			if k := len(parent.Children); k > 0 && parent.Children[k-1].Kind == Text {
				parent.Children[k-1].Data += data
				continue
			}
			n := &Node{
				Kind:   Text,
				Data:   data,
				Parent: parent,
				Pos:    nextPos(parent, Text),
				Depth:  parent.Depth + 1,
			}
			d.adopt(n)
			parent.Children = append(parent.Children, n)
		default:
			// Comments, directives and processing instructions are ignored.
		}
		if lim.MaxNodes > 0 && d.NumNodes() > lim.MaxNodes {
			return nil, &LimitError{What: LimitNodes, Limit: int64(lim.MaxNodes)}
		}
	}
	if d.Root == nil {
		return nil, fmt.Errorf("xmltree: parse: empty document")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: parse: unclosed element <%s>", stack[len(stack)-1].Label)
	}
	return d, nil
}
