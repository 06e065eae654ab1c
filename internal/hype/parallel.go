// Shard-parallel HyPE. In the downward Xreg fragment sibling subtrees are
// independent: the NFA only consumes child steps and filter AFAs only walk
// downwards, so once the states and AFA seed sets a child starts from are
// known, its entire visit depends on nothing outside its subtree — the
// preorder interval [c, End(c)]. That makes the single-pass algorithm of
// §6 parallelizable without approximation:
//
//  1. A sequential planner partially visits a small "spine" of nodes near
//     the root, exactly the way walk() would (same pruning decisions, same
//     vertex allocation), but instead of recursing it cuts the children
//     into parts of at most about a (4·workers)-th of the document, for
//     the workers that can run at once (at most GOMAXPROCS). A larger
//     child is stepped into and becomes a spine node of its own,
//     recursively; every other part is a range task, a contiguous run of
//     siblings under one spine node.
//  2. The planner engine keeps warm worker clones (shared immutable
//     automaton metadata, private hybrid caches, index metadata and run
//     buffers). The calling goroutine is worker 0, the others are
//     goroutines, and each takes the next task from the list until none is
//     left, honoring context cancellation. A worker steps into a range's
//     children the way walk() does, from its own copy of the spine node's
//     state: stepping a cached state writes its transition slots, so each
//     worker interns the planner's sets in its own cache. It numbers cans
//     vertices continuously across its tasks; a task records its first
//     vertex and its bounds in the worker's buffers, the link edges from
//     the spine node's vertices, and its children's share of the spine
//     node's AFA accumulator.
//  3. A sequential merge folds the results back: each task's vertices,
//     edges and candidates are shifted into the global cans DAG, its
//     accumulator share (a bitset, interned anew by the planner) is ORed
//     into the spine node's, split children are linked and folded through
//     the planner's transitions, and the spine's bottom-up AFA evaluations
//     and guard kills run exactly where the sequential pass would have run
//     them. Phase 2 then walks the merged DAG once.
//
// The result — answers, their order, and every Stats counter — is
// identical to the sequential Eval by construction; only vertex numbering
// (an internal detail) differs.
package hype

import (
	"cmp"
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"smoqe/internal/colstore"
	"smoqe/internal/failpoint"
	"smoqe/internal/guard"
	"smoqe/internal/trace"
)

// maxSplits bounds how many children the planner expands onto the spine,
// which also bounds spine depth on chains.
const maxSplits = 64

// spineNode is a node the planner visits sequentially. Its vertices live in
// the planner run's (global) numbering; its bottom-up half — AFA evaluation
// and guard kills — runs during the merge, after every child below it has
// been folded. parts cover its surviving element children in document
// order.
type spineNode struct {
	node  int32
	h     *hstate
	res   visitResult // vertices in the planner's global numbering
	acc   *afaVal     // bottom-up accumulator, filled by the merge
	parts []spinePart
}

// spinePart is one child split onto the spine, entered through the
// planner's transition tr, or one range task.
type spinePart struct {
	tr    *htrans
	spine *spineNode
	task  *shardTask
}

// shardTask is one range task: the element children of sp in the preorder
// interval [from, to), a run of siblings that one worker steps into and
// visits in order, exactly as walk() would. The worker fills in the rest:
// its run, the task's first vertex and its bounds in the run's buffers
// (the dead marks of a guarded automaton are the task's vertices), the
// children's share of sp's accumulator, or why it did not finish. err
// carries a task-local failure — a recovered panic (*guard.PanicError), an
// exceeded budget (*LimitError) or an injected fault — that fails the
// whole evaluation without ever taking down the worker pool.
type shardTask struct {
	sp       *spineNode
	from, to int32

	wr                     *run
	v0, v1                 int32
	e0, e1, c0, c1, l0, l1 int
	acc                    *afaVal // in the worker's cache
	cancelled              bool
	err                    error
}

// shardPool is the task list of one parallel evaluation and the runs of
// its workers, each created by the worker's own goroutine. The workers
// start before the plan exists, so waking them overlaps planning; ready
// publishes the tasks and the run slots.
type shardPool struct {
	r0    *run
	tasks []*shardTask
	ready atomic.Bool
	next  atomic.Int32
	runs  []*run
	wg    sync.WaitGroup
}

// runParallel is Eval with opts.Workers > 0: it fans range tasks out to
// at most opts.Workers workers. The answers and statistics are exactly
// those of the sequential pass. The engine itself acts as the sequential
// planner, so — like Eval — it must not run concurrently on one Engine;
// workers run on its private worker clones.
func (e *Engine) runParallel(ctx context.Context, cd *colstore.Document, opts Options) (Result, error) {
	// The budget is shared with every worker run, so MaxVisited and
	// MaxResultNodes bound the whole parallel evaluation, not each task
	// separately.
	r0 := e.newRun(ctx, cd, opts)
	defer e.releaseBufs()
	r0.done = ctx.Done()
	nw := opts.Workers
	// Workers that can run now — one per P — start before the plan
	// exists, so waking them overlaps planning, keep warm clones, and are
	// the count the plan cuts tasks for. The rest could only take turns on
	// those Ps: they start once the plan shows there are tasks for them,
	// on transient clones.
	early := min(nw, runtime.GOMAXPROCS(0))
	if len(e.workers) < early {
		e.workers = append(e.workers, make([]*Engine, early-len(e.workers))...)
	}
	p := &shardPool{r0: r0}
	p.wg.Add(early)
	for i := 1; i < early; i++ {
		go p.work(i)
	}
	spines, err := p.plan(ctx, early, nw)
	late := max(early, len(p.runs))
	p.wg.Add(late - early)
	for i := early; i < late; i++ {
		go p.work(i)
	}
	p.work(0)
	p.wg.Wait()
	defer p.release()

	res := Result{Shards: len(p.tasks), SpineNodes: len(spines), Workers: min(nw, len(p.tasks))}
	if err != nil {
		return res, err
	}
	for _, t := range p.tasks {
		if t.err != nil {
			return res, t.err
		}
	}
	for _, t := range p.tasks {
		if t.cancelled {
			return res, cmp.Or(ctx.Err(), context.Canceled)
		}
	}
	if err := mergeParallel(ctx, r0, spines, p.tasks, p.runs); err != nil {
		return res, err
	}
	hits, err := r0.finish(spines[0].res, &res.Stats)
	if err != nil {
		return res, err
	}
	e.answers(&res, hits)
	return res, nil
}

// plan runs the planner for procs workers running at once and publishes
// its tasks, none when ctx is done — even when planning panics, so no
// worker waits forever — with a run slot for each of at most workers
// workers: however many are asked for, no more run than there are tasks.
func (p *shardPool) plan(ctx context.Context, procs, workers int) (spines []*spineNode, err error) {
	var tasks []*shardTask
	defer func() {
		p.tasks = tasks
		p.runs = make([]*run, min(workers, len(tasks)))
		p.ready.Store(true)
	}()
	tasks, spines = p.r0.planShards(ctx, procs)
	if err = ctx.Err(); err != nil {
		tasks = nil
	}
	return spines, err
}

// work is worker i: once the plan is published, it takes tasks from the
// list until none is left, under one "hype.shard" span when it is one of
// the Result's Workers (i below the task count). Each task runs under its
// own recover (see runShard), so a panic inside one becomes that task's
// err instead of killing the process, and the barrier always completes.
// Once its run aborted or ctx is done, the worker only marks the tasks it
// takes as cancelled, so the list drains fast.
func (p *shardPool) work(i int) {
	defer p.wg.Done()
	for !p.ready.Load() {
		runtime.Gosched()
	}
	if i >= len(p.tasks) {
		return
	}
	_, sp := trace.Start(p.r0.ctx, "hype.shard")
	defer sp.End()
	var tasks, nodes int64
	cancelled := false
	defer func() {
		sp.AttrInt("tasks", tasks)
		sp.AttrInt("nodes", nodes)
		if cancelled {
			sp.Event("cancelled")
		}
	}()
	for {
		k := int(p.next.Add(1)) - 1
		if k >= len(p.tasks) {
			return
		}
		t := p.tasks[k]
		tasks++
		if wr := p.runs[i]; (wr != nil && wr.cancelled) || p.r0.ctxDone() {
			t.cancelled = true
		} else {
			nodes += int64(t.to - t.from)
			p.runShard(i, t)
			shardError(sp, t.err)
		}
		cancelled = cancelled || t.cancelled
	}
}

// worker returns worker i's run, first creating it on the planner's warm
// worker clone i (a fresh clone when there is none yet, or a transient one
// for a worker beyond the warm ones): the same document, label binding,
// mode, limits and shared budget as the planner run. It runs on worker
// i's goroutine, so each run is allocated by the goroutine that writes it.
func (p *shardPool) worker(i int) *run {
	if wr := p.runs[i]; wr != nil {
		return wr
	}
	r0 := p.r0
	var e *Engine
	if i < len(r0.workers) {
		e = r0.workers[i]
	}
	if e == nil {
		e = r0.Engine.Clone()
		if i < len(r0.workers) {
			r0.workers[i] = e
		}
	}
	wr := &run{
		Engine:  e,
		runBufs: e.takeBufs(),
		ctx:     r0.ctx,
		done:    r0.done,
		limits:  r0.limits,
		bud:     r0.bud,
		cd:      r0.cd,
		cur:     *r0.cd.At(0),
		progLab: r0.progLab,
		hc:      e.ensureCache(r0.ixm != nil),
	}
	if r0.ixm != nil {
		wr.ixm = e.bindIndex(r0.ixm.ix)
	}
	p.runs[i] = wr
	return wr
}

// release ends the workers' loan of their clones' buffers, after the
// merge has read them.
func (p *shardPool) release() {
	for _, wr := range p.runs {
		if wr != nil {
			wr.releaseBufs()
		}
	}
}

// runShard evaluates task t on worker i, isolating panics: a panic
// anywhere below walk() — including an injected ModePanic fault — is
// recovered here, inside the worker goroutine (a cross-goroutine panic
// would kill the process), and reported as the task's error. A task that
// trips a resource budget reports its *LimitError the same way. Either
// way the worker stops and its clone is replaced by a fresh one for the
// next evaluation: its internal state is suspect after an aborted visit.
func (p *shardPool) runShard(i int, t *shardTask) {
	defer func() {
		if rec := recover(); rec != nil {
			t.err = guard.Recovered(failpoint.SiteHypeShardWorker, rec)
		}
		if t.err != nil {
			if i < len(p.r0.workers) {
				p.r0.workers[i] = nil
			}
			if wr := p.runs[i]; wr != nil {
				wr.cancelled = true
			}
		}
	}()
	if err := failpoint.Inject(failpoint.SiteHypeShardWorker); err != nil {
		t.err = err
		return
	}
	wr := p.worker(i)
	h, spineBase := wr.enter(t.sp.h), t.sp.res.base
	t.wr = wr
	t.v0, t.e0, t.c0, t.l0 = int32(wr.numVerts), len(wr.edgeList), len(wr.cands), len(wr.links)
	cd := wr.cd
	for c := t.from; c < t.to; c = cd.End(c) + 1 {
		if !cd.IsElement(c) {
			continue
		}
		// walk's child step, with link edges from the spine node's
		// vertices and the accumulator kept for the merge.
		tr := wr.childStep(c, h)
		if tr == nil {
			continue
		}
		cres := wr.walk(c, tr.next)
		wr.numEdges += len(tr.linkEdges)
		if wr.guarded {
			for _, le := range tr.linkEdges {
				wr.links = append(wr.links, edgePair{spineBase + le.from, cres.base + le.to})
			}
		}
		if len(tr.rules) > 0 && cres.vals != nil {
			t.acc = wr.hc.fold(tr, t.acc, cres.vals)
		}
	}
	t.v1, t.e1, t.c1, t.l1 = int32(wr.numVerts), len(wr.edgeList), len(wr.cands), len(wr.links)
	t.cancelled = wr.cancelled
	t.err = wr.limitErr
}

// enter returns the worker's own state for the planner state h: its NFA
// and AFA sets interned in the worker's cache.
func (wr *run) enter(h *hstate) *hstate {
	if wr.from != h {
		wr.from, wr.fromState = h, wr.hc.intern(h.nfa, h.rel)
	}
	return wr.fromState
}

// shardError annotates a worker's shard span with a task's failure, if
// any: an event for a recovered panic, an injected fault or an exceeded
// budget, and the error.
func shardError(sp *trace.Span, err error) {
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

// planShards is the sequential planner of a parallel evaluation for the
// given worker count — the "hype.plan" span. It partially visits the root
// and cuts the preorder interval of its children in halves until no part
// holds more than about a (4·workers)-th of the document's nodes. A part
// that is one larger child is stepped into here and expanded onto the
// spine, recursively; the others become range tasks, which the workers
// step into themselves. Splitting a leaf just moves it onto the spine,
// which is how chains bottom out. It returns the tasks, in document
// order, and the spine nodes, the root's first and every spine node after
// its parent.
//
// Four tasks per worker, not two, let the worker that starts first (the
// calling goroutine; the others wake 66–239 µs later on a 2-vCPU VM) take
// more of them: on doc_hot's nine automata at 2,000 patients, in process,
// the median speedup of two workers over the sequential pass was
// 1.57–1.63× with twelve tasks and 1.50–1.54× with six, at the same CPU.
func (r0 *run) planShards(ctx context.Context, workers int) ([]*shardTask, []*spineNode) {
	_, sp := trace.Start(ctx, "hype.plan")
	defer sp.End()
	pl := planner{r: r0, limit: max(1, int(r0.cd.End(0))/(4*workers))}
	pl.spines = []*spineNode{r0.openSpine(0, r0.hc.rootState())}
	for i := 0; i < len(pl.spines); i++ {
		if s := pl.spines[i]; s.h.walks {
			pl.cut(s, s.node+1, r0.cd.End(s.node)+1)
		}
	}
	// In document order, the merge appends the tasks' candidates in
	// preorder, as the sequential pass does, so sorting the answers finds
	// them sorted.
	slices.SortFunc(pl.tasks, func(a, b *shardTask) int { return cmp.Compare(a.from, b.from) })
	sp.AttrInt("shards", int64(len(pl.tasks)))
	sp.AttrInt("spine_nodes", int64(len(pl.spines)))
	return pl.tasks, pl.spines
}

// planner is planShards' state: the part size limit and what it built.
type planner struct {
	r      *run
	limit  int
	splits int
	tasks  []*shardTask
	spines []*spineNode
}

// cut divides the children of spine node sp whose subtrees tile the
// preorder interval [from, to), appending to sp.parts in document order.
func (pl *planner) cut(sp *spineNode, from, to int32) {
	if from >= to {
		return
	}
	cd := pl.r.cd
	if int(to-from) > pl.limit {
		// The child holding the middle node: an ancestor-or-self of it.
		c := from + (to-from)/2
		for cd.Parent(c) != sp.node {
			c = cd.Parent(c)
		}
		end := cd.End(c) + 1
		if int(end-c) > pl.limit && pl.splits < maxSplits && cd.IsElement(c) {
			pl.splits++
			pl.cut(sp, from, c)
			if tr := pl.r.childStep(c, sp.h); tr != nil {
				kid := pl.r.openSpine(c, tr.next)
				pl.spines = append(pl.spines, kid)
				sp.parts = append(sp.parts, spinePart{tr: tr, spine: kid})
			}
			pl.cut(sp, end, to)
			return
		}
		if c == from {
			c = end
		}
		if c < to {
			pl.cut(sp, from, c)
			pl.cut(sp, c, to)
			return
		}
	}
	t := &shardTask{sp: sp, from: from, to: to}
	pl.tasks = append(pl.tasks, t)
	sp.parts = append(sp.parts, spinePart{task: t})
}

// openSpine visits node n in state h the way walk() opens it — same stats,
// same vertex allocation — leaving its children to the planner.
func (r *run) openSpine(n int32, h *hstate) *spineNode {
	r.stats.VisitedElements++
	return &spineNode{node: n, h: h, res: r.openNode(n, h)}
}

// mergeParallel folds the task results back into the planner run's global
// DAG — the sequential third phase of the parallel evaluation (see the
// package comment), under a "hype.merge" span. tasks are in document
// order; runs are the workers' runs, whose buffers the tasks index.
func mergeParallel(ctx context.Context, r0 *run, spines []*spineNode, tasks []*shardTask, runs []*run) error {
	_, msp := trace.Start(ctx, "hype.merge")
	defer msp.End()
	if err := failpoint.Inject(failpoint.SiteHypeMerge); err != nil {
		msp.Event("failpoint", "site", failpoint.SiteHypeMerge)
		msp.Error(err)
		return err
	}

	// Presize the merged DAG: one growth step instead of log-many
	// reallocations while folding the workers' lists in.
	extraV, extraE, extraC := 0, 0, 0
	for _, wr := range runs {
		if wr == nil {
			continue
		}
		extraV += len(wr.dead)
		extraE += len(wr.edgeList) + len(wr.links)
		extraC += len(wr.cands)
		r0.numEdges += wr.numEdges
		addStats(&r0.stats, wr.stats)
	}
	r0.dead = slices.Grow(r0.dead, extraV)
	r0.edgeList = slices.Grow(r0.edgeList, extraE)
	r0.cands = slices.Grow(r0.cands, extraC)

	for _, t := range tasks {
		r0.appendTask(t)
	}
	// Fold bottom-up: spines in reverse creation order puts every spine
	// child before its parent, so a parent folds fully-evaluated children.
	// A task already linked and folded its children; its part of the
	// accumulator, an OR over them, joins the others'.
	for i := len(spines) - 1; i >= 0; i-- {
		sp := spines[i]
		for _, pt := range sp.parts {
			if pt.spine != nil {
				r0.link(&sp.res, pt.tr, pt.spine.res.base)
				if vals := pt.spine.res.vals; len(pt.tr.rules) > 0 && vals != nil {
					sp.acc = r0.hc.fold(pt.tr, sp.acc, vals)
				}
			} else if t := pt.task; t.acc != nil {
				sp.acc = r0.hc.union(sp.acc, t.acc)
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

// appendTask copies task t's part of its worker's cans DAG into the
// planner run's, shifted past the vertices already there.
func (r0 *run) appendTask(t *shardTask) {
	wr := t.wr
	off := int32(r0.numVerts) - t.v0
	r0.numVerts += int(t.v1 - t.v0)
	if r0.guarded {
		r0.dead = append(r0.dead, wr.dead[t.v0:t.v1]...)
		for _, ep := range wr.edgeList[t.e0:t.e1] {
			r0.edgeList = append(r0.edgeList, edgePair{ep.from + off, ep.to + off})
		}
		for _, ep := range wr.links[t.l0:t.l1] {
			r0.edgeList = append(r0.edgeList, edgePair{ep.from, ep.to + off})
		}
	}
	for _, c := range wr.cands[t.c0:t.c1] {
		c.vid += off
		r0.cands = append(r0.cands, c)
	}
}

// addStats sums a worker's per-run counters into the merged statistics.
// CansVertices/CansEdges are excluded: they are set once from the merged
// DAG (worker runs never fill them; only finish does).
func addStats(dst *Stats, s Stats) {
	dst.VisitedElements += s.VisitedElements
	dst.SkippedSubtrees += s.SkippedSubtrees
	dst.SkippedElements += s.SkippedElements
	dst.AFAEvaluations += s.AFAEvaluations
}
