package hype

// Columnar evaluation: the same single-pass HyPE algorithm (visit + cans
// traversal) running over a colstore.Document instead of a pointer tree.
// Child iteration is interval hopping (c := n+1; c <= End(n); c = End(c)+1)
// and every label comparison is an integer compare against interned label
// ids, so the DFS is memory-bandwidth-bound. The columnar pass is the
// compiled DFS (visitColC in compiled.go); it shares the run state — cans
// DAG, pools, budget, cancellation — with the pointer passes and produces
// identical statistics and answers (crosschecked in internal/crosscheck
// against the interpreted pointer pass).

import (
	"context"
	"errors"
	"sort"

	"smoqe/internal/colstore"
)

// colBinding resolves the engine program's label alphabet against one
// columnar document for one evaluation. Binding costs O(document labels +
// NFA edges), negligible next to the DFS, so every EvalColumnar binds
// afresh and nothing outlives the call: no plan or engine keeps a
// reference to a document it once evaluated.
type colBinding struct {
	cd *colstore.Document

	// progLab maps document label ids to the compiled program's label ids
	// (-1 for labels the automaton never mentions — the shared "other"
	// class). colTrans marks the NFA states with at least one transition
	// the document can fire (a wildcard, or a label the document contains)
	// — the has-transitions test of the columnar pass. Dropping
	// transitions on absent labels cannot change answers or statistics:
	// they never fire.
	progLab  []int32
	colTrans nfaSet
}

// bind resolves p's alphabet against cd.
func (p *program) bind(cd *colstore.Document) *colBinding {
	b := &colBinding{cd: cd, progLab: make([]int32, cd.NumLabels()), colTrans: make(nfaSet, p.nfaWords)}
	present := make([]bool, p.numLabels)
	for id, lab := range cd.Labels() {
		pid := p.labelOf(lab)
		b.progLab[id] = pid
		if pid >= 0 {
			present[pid] = true
		}
	}
	for s, edges := range p.nfaEdges {
		for _, ed := range edges {
			if ed.lab < 0 || present[ed.lab] {
				b.colTrans.set(s)
				break
			}
		}
	}
	return b
}

// EvalColumnar computes root[[M]] over the columnar document cd and
// returns the preorder ids of the answers in Result.IDs, honoring ctx and
// opts.Limits like Eval. The columnar pass is always compiled and
// sequential and carries no index: an indexed engine, opts.Workers and
// opts.Trace are errors.
func (e *Engine) EvalColumnar(ctx context.Context, cd *colstore.Document, opts Options) (Result, error) {
	if e.idx != nil || opts.Workers > 0 || opts.Trace > 0 {
		return Result{}, errors.New("hype: the columnar pass runs without an index, shard workers or a trace")
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	b := e.prog.bind(cd)
	r := e.newRun(ctx, opts.Limits)
	d := e.ensureDFA()
	pre := d.snap()
	root, seeds := r.rootStateC()
	vr := r.visitColC(b, cd.At(0), 0, root, seeds)
	res := Result{Compiled: d.delta(pre)}
	hits, err := r.finish(vr, &res.Stats)
	if err != nil {
		return res, err
	}
	res.IDs = candIDs(hits)
	return res, nil
}

// candIDs extracts the columnar hits' preorder ids, sorted and deduplicated
// (the columnar counterpart of candNodes).
func candIDs(hits []cand) []int {
	ids := make([]int, 0, len(hits))
	for _, c := range hits {
		ids = append(ids, int(c.id))
	}
	sort.Ints(ids)
	out := ids[:0]
	prev := -1
	for _, id := range ids {
		if id != prev {
			out = append(out, id)
		}
		prev = id
	}
	return out
}
