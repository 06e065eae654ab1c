// Shard-parallel HyPE. In the downward Xreg fragment sibling subtrees are
// independent: the NFA only consumes child steps and filter AFAs only walk
// downwards, so once the states and AFA seed sets a child starts from are
// known, its entire visit depends on nothing outside its subtree — the
// preorder interval [c, End(c)]. That makes the single-pass algorithm of
// §6 parallelizable without approximation:
//
//  1. A sequential planner partially visits a small "spine" of nodes near
//     the root, exactly the way walk() would (same pruning decisions, same
//     vertex allocation), but instead of recursing it records each
//     surviving element child as an independent shard task. When one shard
//     holds most of the remaining work — the paper's hospital documents
//     often hang everything below one or two departments — the planner
//     expands that shard into a spine node of its own and re-shards its
//     children, recursively, until no shard dominates.
//  2. A bounded worker pool runs the shard visits on private Engine.Clone
//     instances (shared immutable automaton metadata, private run state),
//     honoring context cancellation. A task carries the NFA and AFA sets
//     its subtree starts from as bitsets, never the planner's hybrid
//     state: stepping a cached state writes its transition slots, so each
//     worker interns the sets in its own cache.
//  3. A sequential merge folds the shard results back in document order:
//     shard vertex ids are offset into the global cans DAG, the compiled
//     link edges from spine vertices into shard roots are added, shard AFA
//     truth values (bitsets, interned anew by the planner) are folded into
//     the spine accumulators through the planner's transitions, and the
//     spine's bottom-up AFA evaluations and guard kills run exactly where
//     the sequential pass would have run them. Phase 2 then walks the
//     merged DAG once.
//
// The result — answers, their order, and every Stats counter — is
// identical to the sequential Eval by construction; only vertex numbering
// (an internal detail) differs.
package hype

import (
	"context"
	"errors"
	"slices"
	"sync"

	"smoqe/internal/colstore"
	"smoqe/internal/failpoint"
	"smoqe/internal/guard"
	"smoqe/internal/trace"
)

// parallel-planner tuning knobs.
const (
	// maxShards caps how many tasks domination splitting may create.
	maxShards = 256
	// maxSplitRounds bounds the splitting loop (each round replaces one
	// task by its children, so this also bounds spine depth).
	maxSplitRounds = 64
)

// spineChild is one surviving element child of a spine node after the
// partial visit: either a shard task or a nested spine node (the shard
// dominated and was split further). tr is the planner's hybrid transition
// into the child, whose link edges and fold rules the merge applies.
type spineChild struct {
	tr    *htrans
	task  *shardTask
	spine *spineNode
}

// spineNode is a node the planner visits sequentially. Its vertices live in
// the planner run's (global) numbering; its bottom-up half — AFA evaluation
// and guard kills — runs during the merge, after every child below it has
// been folded.
type spineNode struct {
	node int32
	h    *hstate
	res  visitResult // vertices in the planner's global numbering
	acc  *afaVal     // bottom-up accumulator, filled by the merge
	kids []spineChild
}

// shardTask is one independent subtree evaluation: the child node and the
// exact state sets a sequential visit would have entered it with.
type shardTask struct {
	node int32
	nfa  nfaSet // ε-closed NFA states
	rel  nfaSet // closed AFA seed sets
	size int    // subtree size, for the domination heuristic

	parent *spineNode
	slot   int // index in parent.kids

	out shardOut
}

// shardOut is what a worker hands back: the shard's private cans DAG (local
// vertex numbering starting at 0), its root's first vertex and AFA values
// (a bitset, nil when all false) and its run statistics.
// err carries a shard-local failure — a recovered panic (*guard.PanicError),
// an exceeded budget (*LimitError) or an injected fault — that fails the
// whole evaluation without ever taking down the worker pool.
type shardOut struct {
	numVerts  int
	numEdges  int
	edges     []edgePair
	dead      []bool
	cands     []cand
	base      int32
	vals      nfaSet
	stats     Stats
	cancelled bool
	err       error
}

// runParallel is Eval with opts.Workers > 0: it fans independent subtrees
// out to a bounded pool of at most opts.Workers goroutines. The answers and
// statistics are exactly those of the sequential pass. The engine itself
// acts as the sequential planner, so — like Eval — it must not run
// concurrently on one Engine; workers run on private clones.
func (e *Engine) runParallel(ctx context.Context, cd *colstore.Document, opts Options) (Result, error) {
	// The budget is shared with every worker run, so MaxVisited and
	// MaxResultNodes bound the whole parallel evaluation, not each shard
	// separately.
	r0 := e.newRun(ctx, cd, opts)
	defer e.releaseBufs()
	tasks, spines := r0.planShards(ctx)
	res := Result{Shards: len(tasks), SpineNodes: len(spines)}
	if err := ctx.Err(); err != nil {
		return res, err
	}

	// Execute the shards on a bounded pool of engine clones. Each task runs
	// under its own recover (see runShard): a panic inside one shard —
	// whether from a poisoned document/automaton pair or an injected fault —
	// becomes that task's out.err instead of killing the process, and the
	// WaitGroup barrier always completes.
	nw := min(opts.Workers, len(tasks))
	if nw > 0 {
		ch := make(chan *shardTask)
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				wr := r0.worker()
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
						wr = r0.worker()
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
	hits, err := r0.finish(spines[0].res, &res.Stats)
	if err != nil {
		return res, err
	}
	e.answers(&res, hits)
	return res, nil
}

// planShards is the sequential planner of a parallel evaluation — the
// "hype.plan" span: it partially visits the root, then splits dominating
// shards. It returns the shard tasks and the spine nodes, the root's first.
func (r0 *run) planShards(ctx context.Context) ([]*shardTask, []*spineNode) {
	_, sp := trace.Start(ctx, "hype.plan")
	defer sp.End()
	var tasks []*shardTask
	spines := []*spineNode{r0.expandSpine(0, r0.hc.rootState(), &tasks)}
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
		kc := &t.parent.kids[t.slot]
		kc.spine = r0.expandSpine(t.node, kc.tr.next, &tasks)
		kc.task = nil
		spines = append(spines, kc.spine)
	}
	sp.AttrInt("shards", int64(len(tasks)))
	sp.AttrInt("spine_nodes", int64(len(spines)))
	return tasks, spines
}

// worker returns a run on a fresh clone that evaluates shards of r's
// evaluation: the same document, label binding, mode, limits and shared
// budget.
func (r *run) worker() *run {
	e := r.Engine.Clone()
	w := &run{
		Engine:  e,
		runBufs: new(runBufs),
		ctx:     r.ctx,
		limits:  r.limits,
		bud:     r.bud,
		cd:      r.cd,
		cur:     r.cd.At(0),
		progLab: r.progLab,
		hc:      e.ensureCache(r.ixm != nil),
	}
	if r.ixm != nil {
		w.ixm = e.bindIndex(r.ixm.ix)
	}
	return w
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
		extraV += len(t.out.dead)
		extraE += len(t.out.edges)
		extraC += len(t.out.cands)
	}
	r0.dead = slices.Grow(r0.dead, extraV)
	r0.edgeList = slices.Grow(r0.edgeList, extraE)
	r0.cands = slices.Grow(r0.cands, extraC)

	// Merge bottom-up: spines in reverse creation order puts every spine
	// child before its parent, so a parent folds fully-evaluated children.
	for i := len(spines) - 1; i >= 0; i-- {
		sp := spines[i]
		for _, kc := range sp.kids {
			var base int32
			var vals *afaVal
			if kc.task == nil {
				base, vals = kc.spine.res.base, kc.spine.res.vals
			} else {
				out := &kc.task.out
				off := int32(r0.numVerts)
				r0.numVerts += out.numVerts
				r0.numEdges += out.numEdges
				r0.dead = append(r0.dead, out.dead...)
				for _, ep := range out.edges {
					r0.edgeList = append(r0.edgeList, edgePair{ep.from + off, ep.to + off})
				}
				for _, c := range out.cands {
					c.vid += off
					r0.cands = append(r0.cands, c)
				}
				base, vals = off+out.base, r0.hc.internVal(out.vals)
				// The shard's private DAG is folded in; drop it now so the
				// GC reclaims it before the rest of the merge runs.
				kc.task.out = shardOut{stats: out.stats}
			}
			r0.link(&sp.res, kc.tr, base)
			if len(kc.tr.rules) > 0 && vals != nil {
				sp.acc = r0.hc.fold(kc.tr, sp.acc, vals)
			}
		}
		// Bottom-up AFA evaluation and guard kills at the spine node —
		// the second half of walk(), run in merge order.
		if len(sp.h.active) > 0 {
			r0.evalAt(sp.node, sp.h, sp.acc, &sp.res)
		}
	}
	return nil
}

// runShard evaluates one shard task on the worker's run, isolating panics:
// a panic anywhere below walk() — including an injected ModePanic fault —
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
	res := wr.walk(t.node, wr.hc.intern(t.nfa, t.rel))
	t.out.base = res.base
	if res.vals != nil {
		t.out.vals = slices.Clone(res.vals.bits)
	}
	t.out.numVerts = wr.numVerts
	t.out.numEdges = wr.numEdges
	t.out.edges = wr.edgeList
	t.out.dead = wr.dead
	t.out.cands = wr.cands
	t.out.stats = wr.stats
	t.out.cancelled = wr.cancelled
	t.out.err = wr.limitErr
	// Reset per-shard state (the handed-out result slices are the
	// merge's now).
	wr.numVerts, wr.numEdges, wr.edgeList, wr.dead, wr.cands = 0, 0, nil, nil, nil
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

// expandSpine partially visits node n the way walk() would — same stats,
// same vertex allocation, same per-child pruning — but instead of recursing
// it records every surviving element child as a shard task appended to
// tasks. The bottom-up half of the visit runs later, during the merge.
func (r *run) expandSpine(n int32, h *hstate, tasks *[]*shardTask) *spineNode {
	r.stats.VisitedElements++
	sp := &spineNode{node: n, h: h, res: r.openNode(n, h)}
	if !h.walks {
		return sp
	}
	cd := r.cd
	for c := n + 1; c <= cd.End(n); c = cd.End(c) + 1 {
		if !cd.IsElement(c) {
			continue
		}
		tr := r.childStep(c, h)
		if tr == nil {
			continue // pruned, already accounted
		}
		t := &shardTask{node: c, nfa: tr.next.nfa, rel: tr.next.rel, size: r.subtreeSize(c), parent: sp, slot: len(sp.kids)}
		sp.kids = append(sp.kids, spineChild{tr: tr, task: t})
		*tasks = append(*tasks, t)
	}
	return sp
}

// subtreeSize returns a work estimate for c's subtree, used only to
// balance shards (never for correctness): the index's element count when
// present, the preorder interval's node count otherwise.
func (r *run) subtreeSize(c int32) int {
	if r.ixm != nil {
		return r.ixm.ix.SubtreeSize(c)
	}
	return int(r.cd.End(c) - c + 1)
}

// addStats sums a shard's per-run counters into the merged statistics.
// CansVertices/CansEdges are excluded: they are set once from the merged
// DAG (shard runs never fill them; only finish does).
func addStats(dst *Stats, s Stats) {
	dst.VisitedElements += s.VisitedElements
	dst.SkippedSubtrees += s.SkippedSubtrees
	dst.SkippedElements += s.SkippedElements
	dst.AFAEvaluations += s.AFAEvaluations
}
