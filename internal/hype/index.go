// Package hype implements the HyPE evaluation algorithm of §6 of the paper
// (Hybrid Pass Evaluation): a single top-down depth-first pass over the
// document that simultaneously advances the selecting NFA (mstates), seeds
// and bottom-up evaluates filter AFAs (fstates↓ / fstates↑), prunes
// irrelevant subtrees, and builds the candidate-answer DAG cans; a final
// traversal of cans (much smaller than the document) yields the answers.
// The pass runs over columnar documents (internal/colstore).
//
// The package also provides the index behind OptHyPE-C: a per-node
// summary of the element labels occurring in the node's subtree, which
// lets HyPE skip subtrees that cannot advance any active automaton state.
// The label sets repeat heavily, so they are stored hash-consed (the "-C"
// layout) — the paper observes OptHyPE-C ≈ OptHyPE in speed, at an order
// of magnitude less index memory.
package hype

import (
	"encoding/binary"

	"smoqe/internal/colstore"
)

// LabelSet is a bitset over a document's label ids.
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

// Index is the OptHyPE-C subtree index over one columnar document, held as
// preorder columns: for every element node, the interned set of element
// labels occurring strictly below it, a 64-bit Bloom fingerprint of the
// text values occurring at or below it (so text()='c' obligations can be
// refuted wholesale), and its subtree's element count (for the pruning
// statistics). Label bits are the document's label ids. An Index is
// immutable and safe for concurrent use.
type Index struct {
	cd    *colstore.Document
	words int

	// setID[n] indexes sets: equal strict-subtree label sets are
	// hash-consed, and typical documents have a few dozen distinct ones.
	setID []int32
	sets  []LabelSet

	// bloom[n] fingerprints the text contents of n and all its
	// descendants: two bits per distinct value (see textMask). A query
	// constant whose bits are not all set in a node's bloom provably does
	// not occur in that subtree.
	bloom []uint64

	// elems[n] is the number of element nodes in n's subtree, n included
	// (End(n)−n would count text nodes too); 0 for text nodes.
	elems []int32
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

// BuildIndex constructs the index of cd in one reverse-preorder pass: when
// a node is reached, all of its descendants have been folded into it, so
// it is final and is ORed into its parent. Strict label sets accumulate
// per depth — the only nodes still open are the current node's ancestors.
func BuildIndex(cd *colstore.Document) *Index {
	n := cd.NumNodes()
	ix := &Index{
		cd:    cd,
		words: bitWords(cd.NumLabels()),
		setID: make([]int32, n),
		bloom: make([]uint64, n),
		elems: make([]int32, n),
	}
	intern := make(map[string]int32)
	key := make([]byte, 8*ix.words)
	// open[d] collects the labels strictly below the open node at depth d.
	var open []LabelSet
	for c := int32(n - 1); c >= 0; c-- {
		if !cd.IsElement(c) {
			continue
		}
		d := int(cd.Depth(c))
		for len(open) <= d {
			open = append(open, make(LabelSet, ix.words))
		}
		strict := open[d]
		for i, w := range strict {
			binary.LittleEndian.PutUint64(key[8*i:], w)
		}
		id, ok := intern[string(key)]
		if !ok {
			id = int32(len(ix.sets))
			ix.sets = append(ix.sets, append(LabelSet(nil), strict...))
			intern[string(key)] = id
		}
		ix.setID[c] = id
		if txt := cd.Text(c); txt != "" {
			ix.bloom[c] |= textMask(txt)
		}
		ix.elems[c]++
		if p := cd.Parent(c); p >= 0 {
			open[d-1].orWith(strict)
			open[d-1].set(int(cd.LabelID(c)))
			ix.bloom[p] |= ix.bloom[c]
			ix.elems[p] += ix.elems[c]
		}
		clear(strict)
	}
	return ix
}

// StrictLabels returns the label set occurring strictly below element n;
// bits are the document's label ids.
func (ix *Index) StrictLabels(n int32) LabelSet { return ix.sets[ix.setID[n]] }

// TextBloom returns the Bloom fingerprint of all text values at or below n.
func (ix *Index) TextBloom(n int32) uint64 { return ix.bloom[n] }

// SubtreeSize returns the number of element nodes in n's subtree, n
// included.
func (ix *Index) SubtreeSize(n int32) int { return int(ix.elems[n]) }

// DistinctSets returns how many distinct strict-subtree label sets the
// index stores.
func (ix *Index) DistinctSets() int { return len(ix.sets) }

// MemoryBytes estimates the index's footprint: the interned sets plus the
// three per-node columns.
func (ix *Index) MemoryBytes() int {
	return len(ix.sets)*ix.words*8 + len(ix.setID)*4 + len(ix.bloom)*8 + len(ix.elems)*4
}
