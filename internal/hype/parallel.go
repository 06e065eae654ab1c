// Shard-parallel HyPE. In the downward Xreg fragment sibling subtrees are
// independent: the NFA only consumes child steps and filter AFAs only walk
// downwards, so once the states and AFA seed sets a child starts from are
// known, its entire visit depends on nothing outside its subtree. That
// makes the single-pass algorithm of §6 parallelizable without
// approximation:
//
//  1. A sequential planner partially visits a small "spine" of nodes near
//     the root, exactly the way visit() would (same pruning decisions, same
//     vertex allocation), but instead of recursing it records each
//     surviving element child as an independent shard task. When one shard
//     holds most of the remaining work — the paper's hospital documents
//     often hang everything below one or two departments — the planner
//     expands that shard into a spine node of its own and re-shards its
//     children, recursively, until no shard dominates.
//  2. A bounded worker pool runs the shard visits on private Engine.Clone
//     instances (shared immutable automaton metadata, private run state),
//     honoring context cancellation.
//  3. A sequential merge folds the shard results back in document order:
//     shard vertex ids are offset into the global cans DAG, cans edges from
//     spine vertices into shard roots are added, shard AFA truth vectors
//     are OR-folded into the spine accumulators, and the spine's bottom-up
//     AFA evaluations and guard kills run exactly where the sequential
//     pass would have run them. Phase 2 then walks the merged DAG once.
//
// The result — answers, their order, and every Stats counter — is
// identical to the sequential Eval by construction; only vertex numbering
// (an internal detail) differs.
package hype

import (
	"context"
	"errors"
	"sync"

	"smoqe/internal/failpoint"
	"smoqe/internal/guard"
	"smoqe/internal/trace"
	"smoqe/internal/xmltree"
)

// parallel-planner tuning knobs.
const (
	// maxShards caps how many tasks domination splitting may create.
	maxShards = 256
	// maxSplitRounds bounds the splitting loop (each round replaces one
	// task by its children, so this also bounds spine depth).
	maxSplitRounds = 64
)

// spineChild is one element child of a spine node after the partial visit:
// either a shard task, a nested spine node (the shard dominated and was
// split further), or pruned (both nil — already accounted in Stats).
type spineChild struct {
	node  *xmltree.Node
	task  *shardTask
	spine *spineNode
}

// spineNode is a node the planner visits sequentially. Its vertices live in
// the planner run's (global) numbering; its bottom-up half — AFA evaluation
// and guard kills — runs during the merge, after every child below it has
// been folded.
type spineNode struct {
	node     *xmltree.Node
	rel      []nfaSet    // closed AFA seed sets at node (nil per inactive AFA)
	res      visitResult // vertices in the planner's global numbering
	transAcc [][]bool    // bottom-up accumulators, filled by the merge
	kids     []spineChild
}

// shardTask is one independent subtree evaluation: the child node and the
// exact state sets a sequential visit would have entered it with.
type shardTask struct {
	node   *xmltree.Node
	cms    nfaSet
	cseeds []nfaSet
	size   int // subtree element count, for the domination heuristic

	parent *spineNode
	slot   int // index in parent.kids

	out shardOut
}

// shardOut is what a worker hands back: the shard's private cans DAG (local
// vertex numbering starting at 0), its root visitResult and run statistics.
// err carries a shard-local failure — a recovered panic (*guard.PanicError),
// an exceeded budget (*LimitError) or an injected fault — that fails the
// whole evaluation without ever taking down the worker pool.
type shardOut struct {
	numVerts  int
	edges     []edgePair
	dead      []bool
	cands     []cand
	res       visitResult
	stats     Stats
	cancelled bool
	err       error
}

// runParallel is Eval with opts.Workers > 0: it fans independent subtrees
// out to a bounded pool of at most opts.Workers goroutines. The answers and
// statistics are exactly those of the sequential pass. The engine itself
// acts as the sequential planner, so — like Eval — it must not run
// concurrently on one Engine; workers run on private clones.
func (e *Engine) runParallel(ctx context.Context, root *xmltree.Node, opts Options) (Result, error) {
	// Plan: partially visit the root, then split dominating shards. The
	// budget is shared with every worker run, so MaxVisited/MaxResultNodes
	// bound the whole parallel evaluation, not each shard separately.
	_, psp := trace.Start(ctx, "hype.plan")
	r0 := e.newRun(ctx, opts.Limits)
	ms := r0.startSet()
	seeds := r0.guardSeeds(ms)

	var tasks []*shardTask
	rootSpine := r0.expandSpine(root, ms, seeds, &tasks)
	spines := []*spineNode{rootSpine}

	for rounds := 0; rounds < maxSplitRounds && len(tasks) > 0 && len(tasks) < maxShards; rounds++ {
		total, big := 0, 0
		for i, t := range tasks {
			total += t.size
			if t.size > tasks[big].size {
				big = i
			}
		}
		// Split while one shard holds over half the remaining work (a
		// single shard always dominates). Splitting a leaf just moves it
		// onto the spine, which is how chains bottom out.
		if len(tasks) >= 2 && tasks[big].size*2 <= total {
			break
		}
		t := tasks[big]
		tasks = append(tasks[:big], tasks[big+1:]...)
		sp := r0.expandSpine(t.node, t.cms, t.cseeds, &tasks)
		t.parent.kids[t.slot] = spineChild{node: t.node, spine: sp}
		spines = append(spines, sp)
	}

	res := Result{Shards: len(tasks), SpineNodes: len(spines)}
	psp.AttrInt("shards", int64(len(tasks)))
	psp.AttrInt("spine_nodes", int64(len(spines)))
	psp.End()
	if err := ctx.Err(); err != nil {
		return res, err
	}

	// Execute the shards on a bounded pool of engine clones. Each task runs
	// under its own recover (see runShard): a panic inside one shard —
	// whether from a poisoned document/automaton pair or an injected fault —
	// becomes that task's out.err instead of killing the process, and the
	// WaitGroup barrier always completes.
	nw := opts.Workers
	if nw > len(tasks) {
		nw = len(tasks)
	}
	if nw > 0 {
		ch := make(chan *shardTask)
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				wr := &run{Engine: e.Clone(), ctx: ctx, limits: r0.limits, bud: r0.bud}
				for t := range ch {
					if wr.cancelled || ctx.Err() != nil {
						t.out.cancelled = true
						continue
					}
					runShard(wr, t)
					if t.out.err != nil {
						// The run's internal state (pools, DAG buffers) is
						// suspect after a panic or an aborted visit; start
						// the next task from a fresh clone.
						wr = &run{Engine: e.Clone(), ctx: ctx, limits: r0.limits, bud: r0.bud}
					}
				}
			}()
		}
		for _, t := range tasks {
			ch <- t
		}
		close(ch)
		wg.Wait()
	}
	res.Workers = nw
	for _, t := range tasks {
		if t.out.err != nil {
			return res, t.out.err
		}
	}
	for _, t := range tasks {
		if t.out.cancelled {
			return res, ctx.Err()
		}
	}

	if err := mergeParallel(ctx, r0, spines, tasks); err != nil {
		return res, err
	}

	// Phase 2 over the merged DAG, then the merged statistics.
	for _, t := range tasks {
		addStats(&r0.stats, t.out.stats)
	}
	hits, err := r0.finish(rootSpine.res, &res.Stats)
	if err != nil {
		return res, err
	}
	e.answers(&res, hits)
	return res, nil
}

// mergeParallel folds the shard results back into the planner run's global
// DAG in document order — the sequential third phase of the parallel
// evaluation (see the package comment). It runs under a "hype.merge" span
// when the evaluation is traced.
func mergeParallel(ctx context.Context, r0 *run, spines []*spineNode, tasks []*shardTask) error {
	_, msp := trace.Start(ctx, "hype.merge")
	defer msp.End()
	if err := failpoint.Inject(failpoint.SiteHypeMerge); err != nil {
		msp.Event("failpoint", "site", failpoint.SiteHypeMerge)
		msp.Error(err)
		return err
	}

	// Presize the merged DAG: one growth step instead of log-many
	// reallocations while folding shard edge lists in.
	extraV, extraE, extraC := 0, 0, 0
	for _, t := range tasks {
		extraV += t.out.numVerts
		extraE += len(t.out.edges)
		extraC += len(t.out.cands)
	}
	r0.dead = growBools(r0.dead, extraV)
	r0.edgeList = growEdges(r0.edgeList, extraE)
	r0.cands = growCands(r0.cands, extraC)

	// Merge bottom-up: spines in reverse creation order puts every spine
	// child before its parent, so a parent folds fully-evaluated children.
	for i := len(spines) - 1; i >= 0; i-- {
		sp := spines[i]
		for _, kc := range sp.kids {
			switch {
			case kc.task != nil:
				out := &kc.task.out
				off := int32(r0.numVerts)
				r0.numVerts += out.numVerts
				r0.dead = append(r0.dead, out.dead...)
				for _, ep := range out.edges {
					r0.edgeList = append(r0.edgeList, edgePair{ep.from + off, ep.to + off})
				}
				for _, c := range out.cands {
					c.vid += off
					r0.cands = append(r0.cands, c)
				}
				r0.linkChild(&sp.res, kc.node.Label, out.res.states, off+out.res.base)
				r0.foldChildAFA(sp.rel, sp.transAcc, kc.node.Label, out.res.afaVals)
				// The shard's private DAG is folded in; drop it now so the
				// GC reclaims it before the rest of the merge runs.
				kc.task.out = shardOut{stats: out.stats}
			case kc.spine != nil:
				r0.linkChild(&sp.res, kc.node.Label, kc.spine.res.states, kc.spine.res.base)
				r0.foldChildAFA(sp.rel, sp.transAcc, kc.node.Label, kc.spine.res.afaVals)
			}
		}
		// Bottom-up AFA evaluation and guard kills at the spine node —
		// the second half of visit(), run in merge order.
		anyAFA := false
		for g := range sp.rel {
			if sp.rel[g] != nil {
				anyAFA = true
				break
			}
		}
		if anyAFA {
			sp.res.afaVals = r0.getVecB()
			for g := range sp.rel {
				if sp.rel[g] == nil {
					continue
				}
				r0.stats.AFAEvaluations++
				sp.res.afaVals[g] = r0.m.AFAs[g].EvalAtMasked(sp.node, sp.transAcc[g], r0.getBools(g), sp.rel[g])
			}
		}
		r0.killGuardFailed(sp.node, &sp.res)
	}
	return nil
}

// runShard evaluates one shard task on the worker's run, isolating panics:
// a panic anywhere below visit() — including an injected ModePanic fault —
// is recovered here, inside the worker goroutine (a cross-goroutine panic
// would kill the process), and reported as the task's error. A shard that
// trips a resource budget reports its *LimitError the same way.
func runShard(wr *run, t *shardTask) {
	// Defer order matters (LIFO): the recover closure runs first so a panic
	// is already in t.out.err when shardSpanOutcome annotates the span, and
	// sp.End runs last so the published snapshot is complete.
	_, sp := trace.Start(wr.ctx, "hype.shard")
	defer sp.End()
	defer shardSpanOutcome(sp, t)
	defer func() {
		if rec := recover(); rec != nil {
			t.out.err = guard.Recovered(failpoint.SiteHypeShardWorker, rec)
		}
	}()
	if err := failpoint.Inject(failpoint.SiteHypeShardWorker); err != nil {
		t.out.err = err
		return
	}
	t.out.res = wr.visit(t.node, t.cms, t.cseeds)
	t.out.numVerts = wr.numVerts
	t.out.edges = wr.edgeList
	t.out.dead = wr.dead
	t.out.cands = wr.cands
	t.out.stats = wr.stats
	t.out.cancelled = wr.cancelled
	t.out.err = wr.limitErr
	// Reset per-shard state; the buffer pools stay (the handed-out result
	// slices are never re-pooled).
	wr.numVerts, wr.edgeList, wr.dead, wr.cands = 0, nil, nil, nil
	wr.stats = Stats{}
}

// shardSpanOutcome annotates a shard span from its task's outcome: the
// subtree size estimate always, plus an event per abnormal ending —
// recovered panic, injected fault, exceeded budget, or cancellation.
func shardSpanOutcome(sp *trace.Span, t *shardTask) {
	sp.AttrInt("subtree_elements", int64(t.size))
	if t.out.cancelled {
		sp.Event("cancelled")
	}
	err := t.out.err
	if err == nil {
		return
	}
	var pe *guard.PanicError
	var fe *failpoint.Error
	var le *LimitError
	switch {
	case errors.As(err, &pe):
		sp.Event("panic", "site", pe.Site)
	case errors.As(err, &fe):
		sp.Event("failpoint", "site", fe.Site)
	case errors.As(err, &le):
		sp.Event("limit-exceeded", "what", le.What)
	}
	sp.Error(err)
}

// expandSpine partially visits node n the way visit() would — same stats,
// same vertex allocation, same per-child pruning — but instead of recursing
// it records every surviving element child as a shard task appended to
// tasks. The bottom-up half of the visit runs later, during the merge.
func (r *run) expandSpine(n *xmltree.Node, ms nfaSet, fseeds []nfaSet, tasks *[]*shardTask) *spineNode {
	r.stats.VisitedElements++
	rel := fseeds
	anyAFA := false
	for g := range rel {
		if rel[g] != nil {
			r.closeAFA(g, rel[g])
			anyAFA = true
		}
	}
	sp := &spineNode{node: n, rel: rel}
	sp.res = r.openNode(n, ms)
	if anyAFA {
		sp.transAcc = r.getVecB()
		for g := range rel {
			if rel[g] != nil {
				sp.transAcc[g] = r.getBoolsCleared(g)
			}
		}
	}
	hasTrans := false
	ms.forEach(func(s int) {
		if len(r.m.States[s].Trans) > 0 {
			hasTrans = true
		}
	})
	if hasTrans || anyAFA {
		for _, c := range n.Children {
			if c.Kind != xmltree.Element {
				continue
			}
			cms, cseeds, ok := r.childStates(c, ms, rel)
			if !ok {
				continue // pruned, already accounted
			}
			t := &shardTask{
				node:   c,
				cms:    cms,
				cseeds: cseeds,
				size:   r.subtreeSize(c),
				parent: sp,
				slot:   len(sp.kids),
			}
			sp.kids = append(sp.kids, spineChild{node: c, task: t})
			*tasks = append(*tasks, t)
		}
	}
	return sp
}

// subtreeSize returns a work estimate for c's subtree, used only to
// balance shards (never for correctness): the index's exact element count
// when present, the document-order ID span otherwise. IDs are dense
// preorder, so the subtree occupies exactly [c.ID, rightmost descendant],
// making the span an exact node count obtained in O(depth) — no walk.
func (r *run) subtreeSize(c *xmltree.Node) int {
	if r.idx != nil {
		return r.idx.SubtreeSize(c)
	}
	last := c
	for len(last.Children) > 0 {
		last = last.Children[len(last.Children)-1]
	}
	return last.ID + 1 - c.ID
}

// growBools/growEdges/growCands ensure capacity for extra more entries.
func growBools(s []bool, extra int) []bool {
	if cap(s)-len(s) >= extra {
		return s
	}
	ns := make([]bool, len(s), len(s)+extra)
	copy(ns, s)
	return ns
}

func growEdges(s []edgePair, extra int) []edgePair {
	if cap(s)-len(s) >= extra {
		return s
	}
	ns := make([]edgePair, len(s), len(s)+extra)
	copy(ns, s)
	return ns
}

func growCands(s []cand, extra int) []cand {
	if cap(s)-len(s) >= extra {
		return s
	}
	ns := make([]cand, len(s), len(s)+extra)
	copy(ns, s)
	return ns
}

// addStats sums a shard's per-run counters into the merged statistics.
// CansVertices/CansEdges are excluded: they are set once from the merged
// DAG (shard runs never fill them; only run() does).
func addStats(dst *Stats, s Stats) {
	dst.VisitedElements += s.VisitedElements
	dst.SkippedSubtrees += s.SkippedSubtrees
	dst.SkippedElements += s.SkippedElements
	dst.AFAEvaluations += s.AFAEvaluations
}
