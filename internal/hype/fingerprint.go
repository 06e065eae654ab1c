package hype

// Corpus-level prefiltering: a per-document fingerprint (element count + a
// text Bloom filter sized to the document) cheap enough to keep for every
// document of a corpus, and CanMatch, which refutes whole documents from
// the fingerprint and the document's own label table alone — the corpus
// generalization of OptHyPE's per-subtree pruning. A document CanMatch
// refutes provably contains no answer, so the collection layer
// (internal/corpus) skips it without evaluating it; a document that passes
// is evaluated normally. The test is sound, never complete: prefilter-on
// and prefilter-off evaluations return identical answers by construction
// (and the HTTP differential crosscheck enforces it).

import (
	"slices"

	"smoqe/internal/colstore"
	"smoqe/internal/mfa"
)

// The text filter's size follows from the document: textBitsPerValue bits
// per distinct text value and textProbes probes keep false positives near
// 0.06 % at any document size (a fixed-width filter saturates once a
// document holds a few hundred values).
const (
	textBitsPerValue = 16
	textProbes       = 8
)

// Fingerprint summarizes one document for corpus-level prefiltering: a
// Bloom filter over the distinct direct text contents of its elements (the
// values text()='c' predicates test) and the element count. The labels the
// document uses are its columnar label table.
type Fingerprint struct {
	// Elements is the number of element nodes (the root included).
	Elements int
	// text is the Bloom filter, textBitsPerValue bits per distinct
	// nonempty text value; empty when no element has text.
	text []uint64
}

// MayHaveText reports whether some element of the document may have direct
// text content c; false proves that no element's text equals c. The empty
// string is never refuted.
func (f Fingerprint) MayHaveText(c string) bool {
	if c == "" {
		return true
	}
	if len(f.text) == 0 {
		return false
	}
	h1, h2 := probePair(fnv64(c))
	m := uint64(len(f.text)) * 64
	for i := uint64(0); i < textProbes; i++ {
		b := (h1 + i*h2) % m
		if f.text[b>>6]&(1<<(b&63)) == 0 {
			return false
		}
	}
	return true
}

// probePair derives the double-hashing pair of a text value from its
// FNV-1a hash h; the step is odd, so the probes of one value differ.
func probePair(h uint64) (h1, h2 uint64) {
	h2 = (h ^ h>>31) * 0x9e3779b97f4a7c15
	return h, (h2 ^ h2>>29) | 1
}

// FingerprintDoc computes the document's fingerprint in one pass over its
// columns. Each element counts once and contributes, when nonempty, its
// direct text content cd.Text(n) — exactly the value a text()='c'
// predicate compares at that element.
func FingerprintDoc(cd *colstore.Document) Fingerprint {
	var f Fingerprint
	var hashes []uint64
	for n := int32(0); n < int32(cd.NumNodes()); n++ {
		if !cd.IsElement(n) {
			continue
		}
		f.Elements++
		if txt := cd.Text(n); txt != "" {
			hashes = append(hashes, fnv64(txt))
		}
	}
	slices.Sort(hashes)
	hashes = slices.Compact(hashes)
	f.text = make([]uint64, (len(hashes)*textBitsPerValue+63)/64)
	m := uint64(len(f.text)) * 64
	for _, h := range hashes {
		h1, h2 := probePair(h)
		for i := uint64(0); i < textProbes; i++ {
			b := (h1 + i*h2) % m
			f.text[b>>6] |= 1 << (b & 63)
		}
	}
	return f
}

// CanMatch is the document-level admission test of m: it reports whether
// document cd, with fingerprint f, can contain an answer. Some final NFA
// state must be reachable from the start state consuming only labels in
// cd's label table (a wildcard step needs some non-root element to
// consume), through states whose guards can hold somewhere in the document
// (see guardPossible). A true return means "evaluate", never "match"; a
// false return proves the answer set empty. The cost is O(|m|) label
// lookups, no document traversal. A label table listing a label no element
// uses (possible in a snapshot) only admits more documents.
func CanMatch(m *mfa.MFA, cd *colstore.Document, f Fingerprint) bool {
	if f.Elements == 0 {
		return false
	}
	// Any consumed label is the label of a non-root element, so wildcard
	// steps are only satisfiable when one exists.
	wildOK := f.Elements >= 2
	possible := make([][]bool, len(m.AFAs)) // per guard AFA, on first use
	n := len(m.States)
	seen := make([]bool, n)
	queue := make([]int, 0, n)
	push := func(s int) {
		if seen[s] {
			return
		}
		if entry := m.GuardEntry(s); entry >= 0 {
			g := m.States[s].Guard
			if possible[g] == nil {
				possible[g] = guardPossible(m.AFAs[g], cd, f, wildOK)
			}
			if !possible[g][entry] {
				return
			}
		}
		seen[s] = true
		queue = append(queue, s)
	}
	push(m.Start)
	for len(queue) > 0 {
		s := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		st := &m.States[s]
		if st.Final {
			return true
		}
		for _, t := range st.Eps {
			push(t)
		}
		for _, tr := range st.Trans {
			if tr.Wild && wildOK || !tr.Wild && hasLabel(cd, tr.Label) {
				push(tr.To)
			}
		}
	}
	return false
}

// hasLabel reports whether l is in cd's label table.
func hasLabel(cd *colstore.Document, l string) bool {
	_, ok := cd.LabelIDOf(l)
	return ok
}

// guardPossible decides, for every state of guard AFA a, whether it can be
// true at some element of document cd with fingerprint f. It is the least
// fixpoint of an abstraction of the AFA's own semantics: a FINAL
// text()='c' (c nonempty) needs c in the text filter; a TRANS needs its
// label in cd's label table (a wildcard needs a non-root element) and its
// target possible; AND needs every kid, OR some kid; NOT and every other
// FINAL always qualify. Each rule holds whenever the concrete state is
// true at some node, so the result over-approximates "true somewhere" and
// a false entry proves the state false at every node.
func guardPossible(a *mfa.AFA, cd *colstore.Document, f Fingerprint, wildOK bool) []bool {
	n := a.NumStates()
	poss := make([]bool, n)
	for t := range a.States {
		switch st := &a.States[t]; st.Kind {
		case mfa.AFAFinal:
			poss[t] = st.Pred.Kind != mfa.PredText || f.MayHaveText(st.Pred.Text)
		case mfa.AFANot:
			poss[t] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for t := range a.States {
			if poss[t] {
				continue
			}
			st := &a.States[t]
			ok := false
			switch st.Kind {
			case mfa.AFATrans:
				ok = (st.Wild && wildOK || !st.Wild && hasLabel(cd, st.Label)) && poss[st.Kids[0]]
			case mfa.AFAAnd:
				ok = true
				for _, k := range st.Kids {
					ok = ok && poss[k]
				}
			case mfa.AFAOr:
				for _, k := range st.Kids {
					ok = ok || poss[k]
				}
			}
			if ok {
				poss[t] = true
				changed = true
			}
		}
	}
	return poss
}
