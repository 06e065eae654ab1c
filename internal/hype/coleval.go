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
	"smoqe/internal/mfa"
)

// ColBinding resolves one automaton's label alphabet against one columnar
// document. A binding is immutable after construction and safe to share
// between any number of engine clones — it is the zero-copy artifact
// workers share, alongside the document's columns and arena.
type ColBinding struct {
	m  *mfa.MFA
	cd *colstore.Document

	// progLab maps document label ids to the compiled program's label ids
	// (-1 for labels the automaton never mentions — the shared "other"
	// class); it depends only on the MFA and the document, never on an
	// engine, because internLabels is a deterministic function of the MFA.
	// colTrans marks the NFA states with at least one transition the
	// document can fire (a wildcard, or a label the document contains) —
	// the has-transitions test of the columnar pass. Dropping transitions
	// on absent labels cannot change answers or statistics: they never
	// fire.
	progLab  []int32
	colTrans nfaSet
}

// BindColumnar resolves m's label alphabet against cd; the binding works
// with any engine built from m (plan pools bind once per document and share
// the binding across all pooled clones).
func BindColumnar(m *mfa.MFA, cd *colstore.Document) *ColBinding {
	b := &ColBinding{m: m, cd: cd}
	words := (m.NumStates() + 63) / 64
	if words == 0 {
		words = 1
	}
	b.colTrans = make(nfaSet, words)
	for s := range m.States {
		for _, tr := range m.States[s].Trans {
			if _, ok := cd.LabelIDOf(tr.Label); tr.Wild || ok {
				b.colTrans.set(s)
				break
			}
		}
	}
	interned := internLabels(m)
	b.progLab = make([]int32, cd.NumLabels())
	for i := range b.progLab {
		b.progLab[i] = -1
	}
	for lab, pid := range interned {
		if id, ok := cd.LabelIDOf(lab); ok {
			b.progLab[id] = pid
		}
	}
	return b
}

// EvalColumnar computes root[[M]] over the binding's columnar document
// and returns the preorder ids of the answers in Result.IDs, honoring ctx
// and opts.Limits like Eval. The columnar pass is always compiled and
// sequential and carries no index: an indexed engine, opts.Workers and
// opts.Trace are errors. b must have been bound for this engine's
// automaton.
func (e *Engine) EvalColumnar(ctx context.Context, b *ColBinding, opts Options) (Result, error) {
	switch {
	case b.m != e.m:
		return Result{}, errors.New("hype: ColBinding bound for a different automaton")
	case e.idx != nil || opts.Workers > 0 || opts.Trace > 0:
		return Result{}, errors.New("hype: the columnar pass runs without an index, shard workers or a trace")
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	r := e.newRun(ctx, opts.Limits)
	d := e.ensureDFA()
	pre := d.snap()
	root, seeds := r.rootStateC()
	vr := r.visitColC(b, b.cd.At(0), 0, root, seeds)
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
