package hype

import (
	"math/bits"

	"smoqe/internal/mfa"
)

// indexMeta is what an indexed run needs beyond the index itself: the
// automaton's consumable labels resolved against the index's document,
// plus the per-label-set usefulness summaries built so far. It drives
// OptHyPE's extra pruning: a child is skipped when no active state can
// possibly accept inside its subtree. A clone keeps the metadata of the
// index it last ran on (Engine.bindIndex), so repeated runs on one
// document pay for it once.
type indexMeta struct {
	ix *Index
	// afaNext[g][t] holds the labels TRANS states in the same-node
	// closure of state t of AFA g may consume; afaWild marks closures
	// with a wildcard step.
	afaNext [][]LabelSet
	afaWild [][]bool
	// Text analysis per AFA state (full-graph reachability): afaAlways
	// marks states whose truth does not hinge on a specific text value (a
	// NOT or a predicate-free/position final is reachable); afaTextMasks
	// lists the Bloom masks of the text constants whose finals the state
	// can reach — if none of them occurs in a subtree, the state is
	// provably false there.
	afaAlways    [][]bool
	afaTextMasks [][][]uint64
	// usedLabels is the union of all labels any automaton transition can
	// consume (restricted to labels present in the indexed document);
	// subtrees whose alphabet covers it can never be pruned by alphabet
	// reasoning, which short-circuits the per-child useful() check.
	usedLabels LabelSet
	// alive memoizes aliveUnder per interned strict-subtree set id.
	alive []*aliveInfo
}

// bindIndex returns the metadata of ix, rebuilding it when the clone last
// ran on another index.
func (e *Engine) bindIndex(ix *Index) *indexMeta {
	if e.im == nil || e.im.ix != ix {
		e.im = newIndexMeta(e, ix)
	}
	return e.im
}

// newIndexMeta computes, against the index's label universe, the label
// sets each automaton state may consume next.
func newIndexMeta(e *Engine, ix *Index) *indexMeta {
	im := &indexMeta{ix: ix, alive: make([]*aliveInfo, len(ix.sets))}
	// AFA side: next[t] holds the labels of the TRANS states in t's
	// same-node closure, wild[t] whether one of them is a wildcard.
	nAFA := len(e.m.AFAs)
	im.afaNext, im.afaWild = make([][]LabelSet, nAFA), make([][]bool, nAFA)
	im.afaAlways, im.afaTextMasks = make([][]bool, nAFA), make([][][]uint64, nAFA)
	for g, a := range e.m.AFAs {
		closure := e.afas[g].closure
		next := make([]LabelSet, len(closure))
		wild := make([]bool, len(closure))
		for t := range next {
			next[t] = make(LabelSet, ix.words)
		}
		for s := range a.States {
			st := &a.States[s]
			if st.Kind != mfa.AFATrans {
				continue
			}
			id, ok := ix.cd.LabelIDOf(st.Label)
			for t := range closure {
				switch {
				case !closure[t].has(s):
				case st.Wild:
					wild[t] = true
				case ok:
					next[t].set(int(id))
				}
			}
		}
		im.afaNext[g], im.afaWild[g] = next, wild
		im.afaAlways[g], im.afaTextMasks[g] = textAnalysis(a)
	}

	// Union of all consumable labels, for the useful() fast path.
	im.usedLabels = make(LabelSet, ix.words)
	for lab := range e.labels {
		if id, ok := ix.cd.LabelIDOf(lab); ok {
			im.usedLabels.set(int(id))
		}
	}
	return im
}

// aliveInfo is the per-subtree-alphabet usefulness summary: the NFA states
// from which acceptance is reachable consuming only labels of the set, and
// per AFA the states whose value can possibly be true at (or below) a node
// whose strict subtree has that alphabet.
type aliveInfo struct {
	nfa nfaSet
	afa []nfaSet
}

// aliveUnder returns, memoized per interned strict-subtree label set, the
// aliveInfo for that alphabet. An NFA state is alive if it is final, an
// ε-successor is alive, or a transition whose label lies in the set (any
// label for wildcards on nonempty sets) leads to an alive state; guards
// are ignored, which only over-approximates — the check stays sound. An
// AFA state is possibly true if its same-node closure holds a FINAL or NOT
// state, or a TRANS that can consume a label of the set.
func (r *run) aliveUnder(setID int32) *aliveInfo {
	im := r.ixm
	if info := im.alive[setID]; info != nil {
		return info
	}
	strict := im.ix.sets[setID]
	strictNonEmpty := false
	for _, w := range strict {
		if w != 0 {
			strictNonEmpty = true
			break
		}
	}
	n := len(r.m.States)
	alive := make([]bool, n)
	for s := 0; s < n; s++ {
		alive[s] = r.m.States[s].Final
	}
	fixpointReach(n, alive, func(s int, mark func(int)) {
		st := &r.m.States[s]
		for _, t := range st.Eps {
			mark(t)
		}
		for _, tr := range st.Trans {
			if tr.Wild {
				if strictNonEmpty {
					mark(tr.To)
				}
				continue
			}
			if id, ok := im.ix.cd.LabelIDOf(tr.Label); ok && strict.Has(int(id)) {
				mark(tr.To)
			}
		}
	})
	info := &aliveInfo{nfa: make(nfaSet, r.nfaWords), afa: make([]nfaSet, len(r.m.AFAs))}
	for s := 0; s < n; s++ {
		if alive[s] {
			info.nfa.set(s)
		}
	}
	for g := range r.afas {
		p := &r.afas[g]
		poss := make(nfaSet, p.words)
		for t := range p.closure {
			switch {
			case p.closure[t].intersects(p.local):
				poss.set(t)
			case im.afaWild[g][t]:
				if strictNonEmpty {
					poss.set(t)
				}
			case im.afaNext[g][t].intersects(strict):
				poss.set(t)
			}
		}
		info.afa[g] = poss
	}
	im.alive[setID] = info
	return info
}

// useful reports whether visiting child c in hybrid state h can contribute
// anything: an answer somewhere in c's subtree (a state alive under the
// subtree's alphabet), or an AFA value that is not trivially false. It is
// sound (never skips a contributing subtree): acceptance below c only
// consumes labels occurring strictly below c, and an AFA seed can only
// become true locally (final predicate or NOT) or by consuming such a
// label. It reads h's closed AFA sets; a member of a seed's same-node
// closure passes the tests only if the seed does, so the verdict is the
// seeds' own.
func (r *run) useful(c int32, h *hstate) bool {
	im := r.ixm
	setID := im.ix.setID[c]
	strict := im.ix.sets[setID]
	strictNonEmpty := false
	covers := true
	for i, w := range strict {
		if w != 0 {
			strictNonEmpty = true
		}
		if im.usedLabels[i]&^w != 0 {
			covers = false
		}
	}
	if covers && strictNonEmpty {
		// The subtree offers every label the automaton can consume;
		// alphabet-based pruning cannot apply (active seeds are
		// productive by construction).
		return true
	}
	info := r.aliveUnder(setID)
	if h.nfa.intersects(info.nfa) {
		return true
	}
	bloom := im.ix.bloom[c]
	for _, g := range h.active {
		rel := r.afaSeg(h.rel, int(g))
		for w := range rel {
			cw := rel[w] & info.afa[g][w]
			for cw != 0 {
				t := w<<6 + bits.TrailingZeros64(cw)
				cw &= cw - 1
				if im.afaAlways[g][t] {
					return true
				}
				for _, mk := range im.afaTextMasks[g][t] {
					if bloom&mk == mk {
						return true
					}
				}
			}
		}
	}
	return false
}

// textAnalysis computes, for one guard AFA, which states can only become
// true through specific text constants: always[t] marks states whose truth
// never hinges on one (a NOT or a non-text final is reachable), masks[t]
// lists the Bloom masks of the constants whose finals state t can reach
// through the full Kids graph. If none of masks[t] occurs in a subtree and
// always[t] is false, the state is provably false there. OptHyPE uses this
// per subtree (see useful).
func textAnalysis(a *mfa.AFA) (always []bool, masks [][]uint64) {
	n := a.NumStates()
	always = make([]bool, n)
	masks = make([][]uint64, n)
	for t := 0; t < n; t++ {
		st := &a.States[t]
		switch st.Kind {
		case mfa.AFANot:
			always[t] = true
		case mfa.AFAFinal:
			// text()='' holds at any node without text children, so
			// only nonempty constants can be refuted by the bloom.
			if st.Pred.Kind == mfa.PredText && st.Pred.Text != "" {
				masks[t] = []uint64{textMask(st.Pred.Text)}
			} else {
				always[t] = true
			}
		}
	}
	const maskCap = 8
	for changed := true; changed; {
		changed = false
		for t := 0; t < n; t++ {
			if always[t] {
				continue
			}
			for _, k := range a.States[t].Kids {
				if always[k] {
					always[t] = true
					changed = true
					break
				}
				for _, mk := range masks[k] {
					found := false
					for _, have := range masks[t] {
						if have == mk {
							found = true
							break
						}
					}
					if !found {
						masks[t] = append(masks[t], mk)
						changed = true
					}
				}
			}
			if len(masks[t]) > maskCap {
				// Too many alternatives to track; give up on text
				// pruning for this state (conservative).
				always[t] = true
				masks[t] = nil
				changed = true
			}
		}
	}
	return always, masks
}
