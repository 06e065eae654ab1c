// Package hype implements the HyPE evaluation algorithm of §6 of the paper
// (Hybrid Pass Evaluation): a single top-down depth-first pass over the
// document that simultaneously advances the selecting NFA (mstates), seeds
// and bottom-up evaluates filter AFAs (fstates↓ / fstates↑), prunes
// irrelevant subtrees, and builds the candidate-answer DAG cans; a final
// traversal of cans (much smaller than the document) yields the answers.
//
// The package also provides the index behind the OptHyPE and OptHyPE-C
// variants: a per-node summary of the element labels occurring in the
// node's subtree, which lets HyPE skip subtrees that cannot advance any
// active automaton state. OptHyPE-C stores the (heavily repeated) label
// sets hash-consed, trading nothing for an order of magnitude less index
// memory — the paper observes OptHyPE-C ≈ OptHyPE in speed.
package hype

import (
	"smoqe/internal/xmltree"
)

// LabelSet is a bitset over the index's label universe.
type LabelSet []uint64

func (s LabelSet) Has(bit int) bool {
	return s[bit>>6]&(1<<(uint(bit)&63)) != 0
}

func (s LabelSet) set(bit int) {
	s[bit>>6] |= 1 << (uint(bit) & 63)
}

func (s LabelSet) orWith(o LabelSet) {
	for i := range s {
		s[i] |= o[i]
	}
}

func (s LabelSet) intersects(o LabelSet) bool {
	for i := range s {
		if s[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// Index is the OptHyPE subtree index over one document: for every element
// node, the set of element labels occurring strictly below it, a 64-bit
// Bloom fingerprint of the text values occurring at or below it (so
// text()='c' obligations can be refuted wholesale), plus subtree element
// counts (used for pruning statistics).
type Index struct {
	labelID    map[string]int
	words      int
	compressed bool
	numSets    int

	// Plain (OptHyPE) layout: every node's strict-subtree set lives at
	// arena[n.ID*words : (n.ID+1)*words] — one flat, cache-friendly block,
	// but O(|T|·|Σ|) bits of memory.
	arena []uint64

	// Compressed (OptHyPE-C) layout: equal sets are hash-consed into dict
	// and nodes store an id; typical documents have a few hundred distinct
	// sets, shrinking the index by an order of magnitude.
	strictID []int32
	dict     []LabelSet

	// textBloom[n.ID] fingerprints the text contents of n and all its
	// descendants: two bits per distinct value (see textMask). A query
	// constant whose bits are not all set in a node's bloom provably does
	// not occur in that subtree.
	textBloom []uint64

	// subSize[n.ID] is the number of element nodes in n's subtree
	// (including n itself); 0 for text nodes.
	subSize []int32
}

// textMask returns the two-bit Bloom mask of a text value. Derived from
// FNV-1a 64; the two bit positions come from independent halves of the
// hash.
func textMask(s string) uint64 {
	h := fnv64(s)
	return 1<<(h&63) | 1<<((h>>32)&63)
}

// fnv64 is the FNV-1a 64 hash of s, the hash behind both text Blooms: the
// per-node masks here and the per-document filter of a Fingerprint.
func fnv64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// BuildIndex constructs the index for doc. With compress it hash-conses
// label sets (OptHyPE-C); pruning decisions are identical either way.
func BuildIndex(doc *xmltree.Document, compress bool) *Index {
	ix := &Index{labelID: make(map[string]int), compressed: compress}
	// First pass: label universe.
	doc.Walk(func(n *xmltree.Node) bool {
		if n.Kind == xmltree.Element {
			if _, ok := ix.labelID[n.Label]; !ok {
				ix.labelID[n.Label] = len(ix.labelID)
			}
		}
		return true
	})
	ix.words = (len(ix.labelID) + 63) / 64
	if ix.words == 0 {
		ix.words = 1
	}
	ix.subSize = make([]int32, doc.NumNodes())
	ix.textBloom = make([]uint64, doc.NumNodes())
	var intern map[string]int32
	if compress {
		ix.strictID = make([]int32, doc.NumNodes())
		intern = make(map[string]int32)
	} else {
		ix.arena = make([]uint64, doc.NumNodes()*ix.words)
	}
	var build func(n *xmltree.Node) (LabelSet, int32)
	build = func(n *xmltree.Node) (LabelSet, int32) {
		var bloom uint64
		if txt := n.TextContent(); txt != "" {
			bloom = textMask(txt)
		}
		var strict LabelSet
		if compress {
			strict = make(LabelSet, ix.words)
		} else {
			strict = ix.arena[n.ID*ix.words : (n.ID+1)*ix.words]
		}
		size := int32(1)
		for _, c := range n.Children {
			if c.Kind != xmltree.Element {
				continue
			}
			cset, csz := build(c)
			strict.orWith(cset)
			strict.set(ix.labelID[c.Label])
			size += csz
			bloom |= ix.textBloom[c.ID]
		}
		ix.textBloom[n.ID] = bloom
		ix.subSize[n.ID] = size
		if compress {
			key := string(bitsKey(strict))
			id, ok := intern[key]
			if !ok {
				id = int32(len(ix.dict))
				ix.dict = append(ix.dict, strict)
				intern[key] = id
			}
			ix.strictID[n.ID] = id
			ix.numSets = len(ix.dict)
			return ix.dict[id], size
		}
		ix.numSets++
		return strict, size
	}
	if doc.Root != nil {
		build(doc.Root)
	}
	return ix
}

func bitsKey(s LabelSet) []byte {
	out := make([]byte, len(s)*8)
	for i, w := range s {
		for b := 0; b < 8; b++ {
			out[i*8+b] = byte(w >> (8 * uint(b)))
		}
	}
	return out
}

// StrictLabels returns the label set occurring strictly below n.
func (ix *Index) StrictLabels(n *xmltree.Node) LabelSet {
	if ix.compressed {
		return ix.dict[ix.strictID[n.ID]]
	}
	return ix.arena[n.ID*ix.words : (n.ID+1)*ix.words]
}

// SetID returns the interned id of n's strict-subtree set, or -1 for the
// plain (uninterned) index variant.
func (ix *Index) SetID(n *xmltree.Node) int32 {
	if ix.compressed {
		return ix.strictID[n.ID]
	}
	return -1
}

// TextBloom returns the Bloom fingerprint of all text values at or below n.
func (ix *Index) TextBloom(n *xmltree.Node) uint64 { return ix.textBloom[n.ID] }

// SubtreeSize returns the number of element nodes in n's subtree, n
// included.
func (ix *Index) SubtreeSize(n *xmltree.Node) int {
	return int(ix.subSize[n.ID])
}

// LabelBit returns the bit assigned to a label and whether the label occurs
// in the indexed document at all.
func (ix *Index) LabelBit(label string) (int, bool) {
	id, ok := ix.labelID[label]
	return id, ok
}

// NumLabels returns the size of the label universe.
func (ix *Index) NumLabels() int { return len(ix.labelID) }

// DistinctSets returns how many label sets the index stores — one per node
// in the plain variant, one per distinct set in the compressed variant
// (typically orders of magnitude fewer).
func (ix *Index) DistinctSets() int { return ix.numSets }

// MemoryBytes estimates the index's label-set storage footprint, the
// quantity OptHyPE-C compresses.
func (ix *Index) MemoryBytes() int {
	if ix.compressed {
		return len(ix.dict)*ix.words*8 + len(ix.strictID)*4 + len(ix.textBloom)*8 + len(ix.subSize)*4
	}
	return len(ix.arena)*8 + len(ix.textBloom)*8 + len(ix.subSize)*4
}
