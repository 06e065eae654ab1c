package hype

// The compiled DFS: visitC mirrors the interpreted visit step for step, and
// visitColC runs the same steps over the columns, but the per-node NFA work
// — closure, final/guard discovery, ε edges, transition matching and cans
// link edges — comes precomputed from the clone's subset-state cache
// (compile.go), and AFA evaluation runs the bitset instruction programs.
// Every decision (visit, prune, vertex, edge, AFA activation) and every
// trace event is replayed identically, so Stats, answers and traces are
// byte-for-byte those of the interpreted pointer pass.

import (
	"fmt"

	"smoqe/internal/colstore"
	"smoqe/internal/mfa"
	"smoqe/internal/xmltree"
)

// visitC is visit() with the node's subset state ds standing in for the
// ε-closed NFA set. fseeds are the not-yet-closed AFA seed sets, exactly as
// in the interpreted path.
func (r *run) visitC(n *xmltree.Node, ds *dfaState, fseeds []nfaSet) visitResult {
	if r.sinceCheck++; r.sinceCheck >= cancelCheckInterval {
		r.poll()
	}
	if r.cancelled {
		return visitResult{base: int32(r.numVerts)}
	}
	r.stats.VisitedElements++

	rel := fseeds
	anyAFA := false
	nAFA := 0
	for g := range rel {
		if rel[g] != nil {
			r.prog.afas[g].close(rel[g])
			anyAFA = true
			nAFA++
		}
	}
	if r.trace != nil {
		r.trace.add(n, TraceVisit, fmt.Sprintf("nfa-states=%d active-afas=%d", len(ds.states), nAFA))
	}

	res := r.openNodeC(n, 0, ds)

	var transAcc [][]bool
	if anyAFA {
		transAcc = r.getVecB()
		for g := range rel {
			if rel[g] != nil {
				transAcc[g] = r.getBoolsCleared(g)
			}
		}
	}

	if ds.hasTrans || anyAFA {
		for _, c := range n.Children {
			if c.Kind != xmltree.Element {
				continue
			}
			r.visitChildC(c, ds, rel, transAcc, &res)
		}
	}

	if anyAFA {
		res.afaVals = r.getVecB()
		for g := range rel {
			if rel[g] == nil {
				continue
			}
			r.stats.AFAEvaluations++
			if r.trace != nil {
				r.trace.add(n, TraceAFAEval, fmt.Sprintf("X%d states=%d", g, rel[g].count()))
			}
			res.afaVals[g] = r.evalAFAC(g, n, transAcc[g], rel[g])
			r.putBools(g, transAcc[g])
		}
		r.putVecB(transAcc)
	}

	r.killGuardFailed(n, &res)
	return res
}

// openNodeC is openNode driven by the subset state's precomputed metadata:
// the vertex block is ds.states, candidates come from ds.finals, ε edges
// from ds.epsLocal. id is the columnar preorder id (-1 on the pointer path,
// where n carries the node).
func (r *run) openNodeC(n *xmltree.Node, id int32, ds *dfaState) visitResult {
	res := visitResult{base: int32(r.numVerts), states: r.getStates()}
	res.states = append(res.states, ds.states...)
	for _, f := range ds.finals {
		r.cands = append(r.cands, cand{
			vid:  res.base + f.idx,
			tag:  f.tag,
			id:   id,
			node: n,
		})
	}
	for range ds.states {
		r.dead = append(r.dead, false)
	}
	r.numVerts += len(ds.states)
	for _, ep := range ds.epsLocal {
		r.edgeList = append(r.edgeList, edgePair{res.base + ep.from, res.base + ep.to})
	}
	return res
}

// visitChildC fuses childStates + visit + linkChild + foldChildAFA for one
// child: the subset transition supplies the child state set and the cans
// link edges, the per-label seed buckets supply the AFA seeds.
func (r *run) visitChildC(c *xmltree.Node, ds *dfaState, rel []nfaSet, transAcc [][]bool, res *visitResult) {
	lid := r.prog.labelOf(c.Label)
	tr := r.dfa.step(ds, lid)

	cseeds, anySeed := r.childSeedsC(lid, rel, tr.next)
	if tr.next == nil && !anySeed {
		r.prune(c, "no-transition")
		r.releaseChildStates(nil, cseeds)
		return
	}
	if r.idx != nil {
		cms := r.prog.emptySet
		if tr.next != nil {
			cms = tr.next.set
		}
		if !r.useful(c, cms, cseeds) {
			r.prune(c, "index-alphabet")
			r.releaseChildStates(nil, cseeds)
			return
		}
	}

	cds := tr.next
	if cds == nil {
		cds = r.dfa.empty
	}
	cres := r.visitC(c, cds, cseeds)

	for _, le := range tr.linkEdges {
		r.edgeList = append(r.edgeList, edgePair{res.base + le.from, cres.base + le.to})
	}
	r.foldChildAFAC(lid, rel, transAcc, cres.afaVals)

	if cres.afaVals != nil {
		for g := range cres.afaVals {
			if cres.afaVals[g] != nil {
				r.putBools(g, cres.afaVals[g])
			}
		}
		r.putVecB(cres.afaVals)
	}
	r.putStates(cres.states)
	r.releaseChildStates(nil, cseeds)
}

// childSeedsC computes the child's AFA seed sets: descend targets of the
// relevant TRANS states that fire on the child's label (the per-label seed
// buckets), plus the guard entries of the child's subset state.
func (r *run) childSeedsC(lid int32, rel []nfaSet, next *dfaState) (cseeds []nfaSet, anySeed bool) {
	cseeds = r.getVecN()
	for g := range rel {
		if rel[g] == nil {
			continue
		}
		for _, sd := range r.prog.afas[g].seeds[lid+1] {
			if !rel[g].has(int(sd.t)) {
				continue
			}
			if cseeds[g] == nil {
				cseeds[g] = r.getAFASet(g)
			}
			cseeds[g].set(int(sd.target))
			anySeed = true
		}
	}
	if next != nil {
		for _, gs := range next.guards {
			if cseeds[gs.g] == nil {
				cseeds[gs.g] = r.getAFASet(int(gs.g))
			}
			cseeds[gs.g].set(int(gs.entry))
			anySeed = true
		}
	}
	return cseeds, anySeed
}

// evalAFAC runs AFA g's compiled program at node n and converts the truth
// bitset into the []bool vector the shared fold/guard code consumes.
func (r *run) evalAFAC(g int, n mfa.NodeView, transVals []bool, member nfaSet) []bool {
	vals := r.getAFASet(g)
	r.prog.afas[g].evalMasked(n, transVals, member, vals)
	out := r.getBools(g)
	for i := range out {
		out[i] = vals.has(i)
	}
	r.putAFASet(g, vals)
	return out
}

// foldChildAFAC ORs a visited child's AFA truth vectors into the parent's
// transition accumulators, walking the per-label seed buckets instead of
// the whole relevance set.
func (r *run) foldChildAFAC(lid int32, rel []nfaSet, transAcc [][]bool, childVals [][]bool) {
	for g := range rel {
		if rel[g] == nil || childVals == nil || childVals[g] == nil {
			continue
		}
		acc := transAcc[g]
		vals := childVals[g]
		for _, sd := range r.prog.afas[g].seeds[lid+1] {
			if acc[sd.t] || !rel[g].has(int(sd.t)) {
				continue
			}
			if vals[sd.target] {
				acc[sd.t] = true
			}
		}
	}
}

// Columnar ------------------------------------------------------------------

// visitColC is visitC over the columns: node n is a preorder id, labels
// arrive as document ids and translate to program ids through the binding,
// and the has-transitions test runs against the binding's alphabet
// (transitions on labels absent from the document can never fire). cur is
// the run's single reusable cursor; it is repositioned to n before AFA
// predicates are evaluated.
func (r *run) visitColC(b *colBinding, cur *colstore.Cursor, n int32, ds *dfaState, fseeds []nfaSet) visitResult {
	if r.sinceCheck++; r.sinceCheck >= cancelCheckInterval {
		r.poll()
	}
	if r.cancelled {
		return visitResult{base: int32(r.numVerts)}
	}
	r.stats.VisitedElements++

	rel := fseeds
	anyAFA := false
	for g := range rel {
		if rel[g] != nil {
			r.prog.afas[g].close(rel[g])
			anyAFA = true
		}
	}

	res := r.openNodeC(nil, n, ds)

	var transAcc [][]bool
	if anyAFA {
		transAcc = r.getVecB()
		for g := range rel {
			if rel[g] != nil {
				transAcc[g] = r.getBoolsCleared(g)
			}
		}
	}

	if ds.set.intersects(b.colTrans) || anyAFA {
		cd := b.cd
		for c := n + 1; c <= cd.End(n); c = cd.End(c) + 1 {
			if !cd.IsElement(c) {
				continue
			}
			r.visitChildColC(b, cur, c, ds, rel, transAcc, &res)
		}
	}

	if anyAFA {
		cur.Seek(n)
		res.afaVals = r.getVecB()
		for g := range rel {
			if rel[g] == nil {
				continue
			}
			r.stats.AFAEvaluations++
			res.afaVals[g] = r.evalAFAC(g, cur, transAcc[g], rel[g])
			r.putBools(g, transAcc[g])
		}
		r.putVecB(transAcc)
	}

	r.killGuardFailed(nil, &res)
	return res
}

// visitChildColC is visitChildC over the columns.
func (r *run) visitChildColC(b *colBinding, cur *colstore.Cursor, c int32, ds *dfaState, rel []nfaSet, transAcc [][]bool, res *visitResult) {
	lid := b.progLab[b.cd.LabelID(c)]
	tr := r.dfa.step(ds, lid)

	cseeds, anySeed := r.childSeedsC(lid, rel, tr.next)
	if tr.next == nil && !anySeed {
		r.prune(nil, "no-transition")
		r.releaseChildStates(nil, cseeds)
		return
	}

	cds := tr.next
	if cds == nil {
		cds = r.dfa.empty
	}
	cres := r.visitColC(b, cur, c, cds, cseeds)

	for _, le := range tr.linkEdges {
		r.edgeList = append(r.edgeList, edgePair{res.base + le.from, cres.base + le.to})
	}
	r.foldChildAFAC(lid, rel, transAcc, cres.afaVals)

	if cres.afaVals != nil {
		for g := range cres.afaVals {
			if cres.afaVals[g] != nil {
				r.putBools(g, cres.afaVals[g])
			}
		}
		r.putVecB(cres.afaVals)
	}
	r.putStates(cres.states)
	r.releaseChildStates(nil, cseeds)
}

// rootStateC interns the run's initial subset state ({start} ε-closed) and
// collects its guard seeds — the compiled counterpart of the closeNFA +
// guardSeeds run preamble.
func (r *run) rootStateC() (*dfaState, []nfaSet) {
	d := r.Engine.ensureDFA()
	ms := r.startSet()
	root := d.canonical(ms)
	r.putNFASet(ms)
	seeds := r.getVecN()
	for _, gs := range root.guards {
		if seeds[gs.g] == nil {
			seeds[gs.g] = r.getAFASet(int(gs.g))
		}
		seeds[gs.g].set(int(gs.entry))
	}
	return root, seeds
}
