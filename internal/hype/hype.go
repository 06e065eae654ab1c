package hype

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"smoqe/internal/colstore"
	"smoqe/internal/mfa"
)

// Engine evaluates one MFA over columnar documents. Without an index it is
// the paper's HyPE; with one (Options.Index) it is OptHyPE-C. An Engine is
// not safe for concurrent use (it keeps private hybrid-state caches and
// the metadata of the index it last ran on); Clone gives each goroutine
// its own.
type Engine struct {
	// The compiled automaton (compile.go), immutable and shared by clones.
	*program

	// Per clone (a clone starts without them and keeps only the cache
	// bound): the lazy hybrid automata of plain and indexed runs (see
	// ensureCache), the cache bound tests may override, the metadata of
	// the index the clone last ran on (meta.go), the buffers of its last
	// run (see runBufs), and the warm shard-worker clones it plans for
	// (parallel.go), at most GOMAXPROCS of them.
	caches   [2]*hcache
	cacheCap int
	im       *indexMeta
	bufs     *runBufs
	workers  []*Engine
}

// Stats reports what one Eval run did; the §7 pruning percentages come
// from VisitedElements versus the document's element count.
type Stats struct {
	// VisitedElements is the number of element nodes the DFS entered.
	VisitedElements int
	// SkippedSubtrees is the number of child subtrees pruned.
	SkippedSubtrees int
	// SkippedElements is the number of element nodes inside pruned
	// subtrees; it is only filled when an index is present (the index
	// knows subtree sizes), otherwise it stays 0.
	SkippedElements int
	// CansVertices and CansEdges measure the candidate-answer DAG.
	CansVertices int
	CansEdges    int
	// AFAEvaluations counts per-node AFA evaluations.
	AFAEvaluations int
}

// New returns an engine for the MFA.
func New(m *mfa.MFA) *Engine { return &Engine{program: buildProgram(m)} }

// Clone returns an independent engine over the same automaton: the
// compiled program is shared, while the hybrid-state caches, the index
// metadata, the run buffers and the shard workers are private, so clones
// may evaluate concurrently on different goroutines.
func (e *Engine) Clone() *Engine { return &Engine{program: e.program, cacheCap: e.cacheCap} }

// fixpointReach marks, in marked, every state from which a marked state is
// reachable via the successor relation succ (i.e. backwards closure done
// forwards by iteration; state counts are small enough that the quadratic
// worst case does not matter).
func fixpointReach(n int, marked []bool, succ func(s int, mark func(int))) {
	for changed := true; changed; {
		changed = false
		for s := 0; s < n; s++ {
			if marked[s] {
				continue
			}
			succ(s, func(t int) {
				if !marked[s] && marked[t] {
					marked[s] = true
					changed = true
				}
			})
		}
	}
}

// nfaSet is a bitset over NFA states.
type nfaSet []uint64

func (s nfaSet) has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }
func (s nfaSet) set(i int)      { s[i>>6] |= 1 << (uint(i) & 63) }

// intersects reports whether the two bitsets share a member.
func (s nfaSet) intersects(o nfaSet) bool {
	for i := range s {
		if s[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// count returns the number of set bits.
func (s nfaSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// forEach calls fn for every set bit in ascending order.
func (s nfaSet) forEach(fn func(i int)) {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi<<6 + b)
			w &= w - 1
		}
	}
}

// Options configures one evaluation run. The zero value is a sequential,
// untraced run without index or resource budgets.
type Options struct {
	// Index, when set, evaluates with OptHyPE-C's subtree pruning. It must
	// have been built (BuildIndex) from the document being evaluated; an
	// index of another document is an error.
	Index *Index
	// Workers, when positive, evaluates shard-parallel: independent
	// subtrees fan out to at most Workers goroutines (see parallel.go).
	// Zero evaluates sequentially.
	Workers int
	// Trace, when positive, records a per-node decision trace of at most
	// Trace events (see Trace). A traced run is sequential.
	Trace int
	// Limits bounds the work of the run; the zero value is unlimited.
	Limits Limits
}

// Result is what one evaluation run produced. Every field belongs to
// exactly this run, so the value is exact no matter how many clones of the
// engine evaluate concurrently.
type Result struct {
	// IDs holds the preorder ids of the answers in document order.
	IDs []int
	// TaggedIDs holds the answers of every machine of a batch automaton
	// (see mfa.Merge), indexed by tag, each in document order. A single
	// query has one tag, so TaggedIDs[0] is IDs.
	TaggedIDs [][]int
	// Stats are the run's pruning and cans statistics; an aborted run
	// reports what it did before it stopped.
	Stats Stats
	// Shards, Workers and SpineNodes report how a shard-parallel run cut
	// the document: the range tasks, the workers that ran them, and the
	// nodes the sequential planner visited itself (the root plus every
	// child too large for one task). Zero for a sequential run.
	Shards     int
	Workers    int
	SpineNodes int
	// Compiled reports what the compiled layer did in a sequential run;
	// the zero value for a shard-parallel run, whose work spreads over
	// clones.
	Compiled CompiledStats
	// Trace is the decision log requested by Options.Trace (nil
	// otherwise); an aborted run keeps what it recorded.
	Trace *Trace
}

// Eval computes the answers of the automaton at the root of cd with a
// single depth-first pass over the columns followed by one traversal of
// the cans DAG (Algorithm HyPE, Fig. 6). The DFS polls ctx and the budgets
// of opts.Limits every cancelCheckInterval visited elements and aborts
// promptly once either trips, returning ctx's error or a *LimitError with
// the partial statistics of the aborted run.
func (e *Engine) Eval(ctx context.Context, cd *colstore.Document, opts Options) (Result, error) {
	if opts.Index != nil && opts.Index.cd != cd {
		return Result{}, errors.New("hype: the index was built from another document")
	}
	if opts.Workers > 0 {
		if opts.Trace > 0 {
			return Result{}, errors.New("hype: a traced run is sequential; set Workers or Trace, not both")
		}
		return e.runParallel(ctx, cd, opts)
	}
	var res Result
	if opts.Trace > 0 {
		res.Trace = &Trace{Limit: opts.Trace}
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	r := e.newRun(ctx, cd, opts)
	defer e.releaseBufs()
	r.trace = res.Trace
	pre := r.hc.cacheCounters
	vr := r.walk(0, r.hc.rootState())
	res.Compiled = r.hc.delta(pre)
	if res.Trace != nil {
		cs := res.Compiled
		res.Trace.Compiled = &cs
	}
	hits, err := r.finish(vr, &res.Stats)
	if err != nil {
		return res, err
	}
	e.answers(&res, hits)
	return res, nil
}

// newRun starts the per-evaluation state of one run of e over cd: the
// label binding, the hybrid cache of the run's mode, with an index its
// metadata, and the clone's run buffers, truncated. The caller defers
// e.releaseBufs.
func (e *Engine) newRun(ctx context.Context, cd *colstore.Document, opts Options) *run {
	r := &run{
		Engine:  e,
		runBufs: e.takeBufs(),
		ctx:     ctx,
		limits:  opts.Limits,
		cd:      cd,
		cur:     *cd.At(0),
		progLab: e.bind(cd),
		hc:      e.ensureCache(opts.Index != nil),
	}
	if opts.Limits.active() {
		r.bud = &budget{}
	}
	if opts.Index != nil {
		r.ixm = e.bindIndex(opts.Index)
	}
	return r
}

// takeBufs lends the clone's run buffers to a new run, truncated.
func (e *Engine) takeBufs() *runBufs {
	if e.bufs == nil {
		e.bufs = new(runBufs)
	}
	b := e.bufs
	b.edgeList, b.dead, b.cands, b.links = b.edgeList[:0], b.dead[:0], b.cands[:0], b.links[:0]
	return b
}

// bind maps cd's label ids to program label ids (-1 for labels the
// automaton never mentions, the shared "other" class). It costs
// O(document labels), so every evaluation binds afresh and no plan or
// engine keeps a reference to a document it once evaluated.
func (p *program) bind(cd *colstore.Document) []int32 {
	progLab := make([]int32, cd.NumLabels())
	for id, lab := range cd.Labels() {
		progLab[id] = p.labelOf(lab)
	}
	return progLab
}

// finish ends a run whose DFS returned vr. An aborted run reports why —
// its exceeded budget, else ctx's error; otherwise phase 2 walks the cans
// DAG and the surviving candidates are returned. Either way st receives
// the run's statistics.
func (r *run) finish(vr visitResult, st *Stats) ([]cand, error) {
	if r.cancelled {
		*st = r.stats
		if r.limitErr != nil {
			return nil, r.limitErr
		}
		return nil, r.ctx.Err()
	}
	hits := r.liveCands(vr)
	r.stats.CansVertices = r.numVerts
	r.stats.CansEdges = r.numEdges
	*st = r.stats
	return hits, nil
}

// answers fills the answer fields of res from the surviving candidates,
// which may be run buffers: every slice of res is fresh.
func (e *Engine) answers(res *Result, hits []cand) {
	res.IDs = candIDs(hits)
	if e.numTags > 1 {
		res.TaggedIDs = make([][]int, e.numTags)
		for _, c := range hits {
			res.TaggedIDs[c.tag] = append(res.TaggedIDs[c.tag], int(c.id))
		}
		for tag, ids := range res.TaggedIDs {
			slices.Sort(ids)
			res.TaggedIDs[tag] = slices.Compact(ids)
		}
	} else if e.numTags == 1 {
		res.TaggedIDs = [][]int{res.IDs}
	}
}

// candIDs extracts the hits' preorder ids, sorted and deduplicated.
func candIDs(hits []cand) []int {
	ids := make([]int, 0, len(hits))
	for _, c := range hits {
		ids = append(ids, int(c.id))
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// liveCands walks the cans DAG from the initial vertex (the root's vertex
// at the NFA start state) and returns the candidate answers reachable
// without crossing a guard-killed vertex — phase 2 of HyPE. Without a
// guarded state every candidate is reachable: the root's block is the
// ε-closure of the start vertex, each child's block the ε-closure of the
// targets of link edges from its parent's block, and no vertex dies. The
// result is a run buffer, so the caller consumes it before the clone runs
// again.
func (r *run) liveCands(res visitResult) []cand {
	if !r.guarded {
		return r.cands
	}
	if len(res.states) == 0 || len(r.cands) == 0 {
		return nil
	}
	startVid := int32(-1)
	for i, s := range res.states {
		if int(s) == r.m.Start {
			startVid = res.base + int32(i)
			break
		}
	}
	if startVid < 0 || r.dead[startVid] {
		return nil
	}
	// CSR adjacency from the flat edge list: count each vertex's edges
	// into offs[v+2], sum, then fill through the cursor offs[v+1], which
	// ends at v's end, so v's edges are adj[offs[v]:offs[v+1]].
	n := r.numVerts
	offs := slices.Grow(r.offs[:0], n+2)[:n+2]
	clear(offs)
	for _, ep := range r.edgeList {
		offs[ep.from+2]++
	}
	for i := 2; i < len(offs); i++ {
		offs[i] += offs[i-1]
	}
	adj := slices.Grow(r.adj[:0], len(r.edgeList))[:len(r.edgeList)]
	for _, ep := range r.edgeList {
		adj[offs[ep.from+1]] = ep.to
		offs[ep.from+1]++
	}
	seen := slices.Grow(r.seen[:0], n)[:n]
	clear(seen)
	stack := append(r.stack[:0], startVid)
	seen[startVid] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[offs[v]:offs[v+1]] {
			if !seen[w] && !r.dead[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	r.offs, r.adj, r.seen, r.stack = offs, adj, seen, stack
	hits := r.cands[:0]
	for _, c := range r.cands {
		if seen[c.vid] {
			hits = append(hits, c)
		}
	}
	return hits
}

// cancelCheckInterval is how many visited elements pass between context
// and budget checks: frequent enough that cancellation aborts within
// microseconds, rare enough that the atomic load in Context.Err is
// invisible in profiles.
const cancelCheckInterval = 256

// poll closes one poll window: it aborts the run once ctx is done or a
// resource budget is exceeded.
func (r *run) poll() {
	r.sinceCheck = 0
	if r.cancelled {
		return
	}
	if r.ctxDone() {
		r.cancelled = true
	} else if r.bud != nil {
		r.checkBudget()
	}
}

// ctxDone reports whether the run's context is done. A parallel run reads
// it through its Done channel, which writes no memory: Err locks the
// context's mutex, whose cache line shard workers polling together would
// pass back and forth. A sequential run, the only poller, calls Err.
func (r *run) ctxDone() bool {
	if r.done == nil {
		return r.ctx.Err() != nil
	}
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// run holds the per-evaluation state.
type run struct {
	*Engine

	// The document and the program label of every document label id.
	cd      *colstore.Document
	progLab []int32
	// hc is the clone's hybrid cache for the run's mode; ixm is the index
	// metadata of an indexed run (nil otherwise).
	hc  *hcache
	ixm *indexMeta

	// trace, when non-nil, records per-node decisions (capped).
	trace *Trace
	// ctx lets the DFS abort early: walk polls it (ctxDone; a parallel
	// run through its Done channel, done) every cancelCheckInterval
	// elements and, once cancelled, every remaining walk returns
	// immediately so the recursion unwinds fast.
	ctx  context.Context
	done <-chan struct{}
	// limits are the run's resource budgets and bud, when non-nil, their
	// shared consumption counters (see Limits); the poll window flushes
	// consumption into bud and sets limitErr (plus cancelled, to unwind)
	// once a bound is exceeded. flushedCands is how many of r.cands were
	// already flushed into the budget.
	limits       Limits
	bud          *budget
	limitErr     error
	flushedCands int

	// The run's buffers, on loan from the engine clone.
	*runBufs

	// The fields below are written for every visited element. A shard
	// worker's run is allocated by the worker's own goroutine (see
	// shardPool.worker), from its P's allocation span, so it shares no
	// cache line with another worker's run.
	// stats is this run's private statistics, so concurrent clones never
	// write shared memory mid-run.
	stats Stats
	// The cans DAG's size: vertices are just indices, and numEdges counts
	// the edges whether or not the run stores them (see runBufs).
	numVerts   int
	numEdges   int
	sinceCheck int
	cancelled  bool
	// cur is the reusable cursor that AFA predicates read the current
	// node through.
	cur colstore.Cursor
	// from and fromState memoize, for a shard worker, the spine state of
	// its last task and the worker's own interned copy of it.
	from, fromState *hstate
}

// runBufs holds a run's buffers. A clone keeps those of its last run, and
// takeBufs truncates them, so a steady-state run allocates no DAG memory;
// releaseBufs drops them once they grow past maxRetainedBytes. A shard
// worker numbers its vertices continuously across its tasks in its own
// buffers, which the merge reads before the planner engine runs again.
// Nothing a Result holds aliases these buffers.
type runBufs struct {
	// cans DAG, stored pointer-free so the GC never scans it: edges live in
	// a flat list (CSR built for the phase-2 traversal), dead marks
	// guard-failed vertices, and cands records the few final-state
	// vertices with their nodes. A guard-free automaton stores only cands.
	edgeList []edgePair
	dead     []bool
	cands    []cand

	// links holds a shard worker's link edges from spine vertices, in the
	// planner's numbering, into the children its range tasks visited.
	links []edgePair

	// preds holds the predicate outcomes at the node being evaluated.
	preds nfaSet

	// Phase 2's CSR, visited marks and DFS stack.
	offs, adj []int32
	seen      []bool
	stack     []int32
}

// maxRetainedBytes bounds the run buffers an engine clone keeps between
// runs, so one huge evaluation does not pin its DAG in the engine pool.
const maxRetainedBytes = 4 << 20

// releaseBufs ends a run's loan of the clone's buffers: it drops them when
// they grew past maxRetainedBytes.
func (e *Engine) releaseBufs() {
	b := e.bufs
	n := 8*(cap(b.edgeList)+cap(b.links)) + cap(b.dead) + 12*cap(b.cands) +
		4*(cap(b.offs)+cap(b.adj)+cap(b.stack)) + cap(b.seen)
	if n > maxRetainedBytes {
		e.bufs = nil
	}
}

// cand is a candidate answer: a cans vertex at a final NFA state, with the
// preorder id of the node it would contribute (the ν annotation of the
// paper) and the final state's result tag (for batch evaluation).
type cand struct {
	vid int32
	tag int32
	id  int32
}

// edgePair is one cans edge; edges are gathered flat and turned into CSR
// adjacency only for the final traversal (fewer, larger allocations).
type edgePair struct{ from, to int32 }

// visitResult carries what a parent needs back from a visited child.
type visitResult struct {
	states []int32 // NFA states with vertices at this node (sorted, read-only)
	base   int32   // vertex id of states[0]
	vals   *afaVal // the node's AFA truth values (nil: all false)
}

// The DFS --------------------------------------------------------------------

// walk processes element n in hybrid state h: it allocates the cans
// vertices for n, visits the children that can contribute, evaluates the
// active AFAs bottom-up and returns what the parent folds. Everything that
// depends on the states alone — closures, finals, ε and link edges, child
// states and AFA seeds — comes from the cached transitions, and the AFA
// folds and evaluations are memo lookups (compile.go).
func (r *run) walk(n int32, h *hstate) visitResult {
	if r.sinceCheck++; r.sinceCheck >= cancelCheckInterval {
		r.poll()
	}
	if r.cancelled {
		// Unwind without touching the document: the empty result folds
		// into the parent as if the subtree contributed nothing, and the
		// whole run is discarded by the caller anyway.
		return visitResult{base: int32(r.numVerts)}
	}
	r.stats.VisitedElements++
	if r.trace != nil {
		r.trace.add(r.cd, n, TraceVisit, fmt.Sprintf("nfa-states=%d active-afas=%d", len(h.states), len(h.active)))
	}
	res := r.openNode(n, h)
	if !h.walks {
		return res
	}
	var acc *afaVal // the AFAs' bottom-up TRANS inputs
	cd := r.cd
	for c := n + 1; c <= cd.End(n); c = cd.End(c) + 1 {
		if !cd.IsElement(c) {
			continue
		}
		if t := r.childStep(c, h); t != nil {
			cres := r.walk(c, t.next)
			r.link(&res, t, cres.base)
			if len(t.rules) > 0 && cres.vals != nil {
				acc = r.hc.fold(t, acc, cres.vals)
			}
		}
	}
	if len(h.active) > 0 {
		r.evalAt(n, h, acc, &res)
	}
	return res
}

// openNode allocates the cans vertices of node n in hybrid state h: the
// vertex block is h.states (shared, never written), final states become
// candidate answers, and h.epsLocal supplies the ε edges among them.
func (r *run) openNode(n int32, h *hstate) visitResult {
	res := visitResult{base: int32(r.numVerts), states: h.states}
	for _, f := range h.finals {
		r.cands = append(r.cands, cand{vid: res.base + f.idx, tag: f.tag, id: n})
	}
	r.numVerts += len(h.states)
	r.numEdges += len(h.epsLocal)
	if !r.guarded {
		return res
	}
	r.dead = append(r.dead, make([]bool, len(h.states))...)
	for _, ep := range h.epsLocal {
		r.edgeList = append(r.edgeList, edgePair{res.base + ep.from, res.base + ep.to})
	}
	return res
}

// childStep decides whether child c of a node in hybrid state h needs a
// visit and returns the transition into c, or nil when c would contribute
// nothing — no NFA transition and no AFA step fires (HyPE's
// "no-transition" prune), or the index refutes progress (OptHyPE's
// "index-alphabet" prune) — after recording the prune.
func (r *run) childStep(c int32, h *hstate) *htrans {
	t := r.hc.step(h, r.progLab[r.cd.LabelID(c)])
	switch {
	case t.next == nil:
		r.prune(c, "no-transition")
	case r.ixm != nil && !r.useful(c, t.next):
		r.prune(c, "index-alphabet")
	default:
		return t
	}
	return nil
}

// link adds the cans edges of transition t from res's vertices into the
// child block starting at vertex childBase.
func (r *run) link(res *visitResult, t *htrans, childBase int32) {
	r.numEdges += len(t.linkEdges)
	if !r.guarded {
		return
	}
	for _, le := range t.linkEdges {
		r.edgeList = append(r.edgeList, edgePair{res.base + le.from, childBase + le.to})
	}
}

// evalAt evaluates the active AFAs of h bottom-up at node n from the
// accumulator acc (fstates↑) and kills the vertices whose guard came out
// false (lines 14–15 of PCans).
func (r *run) evalAt(n int32, h *hstate, acc *afaVal, res *visitResult) {
	r.stats.AFAEvaluations += len(h.active)
	if r.trace != nil {
		for _, g := range h.active {
			r.trace.add(r.cd, n, TraceAFAEval, fmt.Sprintf("X%d states=%d", g, r.afaSeg(h.rel, int(g)).count()))
		}
	}
	var preds nfaSet
	if len(h.preds) > 0 {
		w := bitWords(len(h.preds))
		preds = slices.Grow(r.preds[:0], w)[:w]
		clear(preds)
		r.cur.Seek(n)
		for i := range h.preds {
			if h.preds[i].pred.Holds(&r.cur) {
				preds.set(i)
			}
		}
		r.preds = preds
	}
	out := r.hc.eval(h, acc, preds)
	res.vals = out.vals
	for _, i := range out.kills {
		r.dead[res.base+i] = true
		if r.trace != nil {
			s := h.states[i]
			r.trace.add(r.cd, n, TraceGuardFail, fmt.Sprintf("state s%d guard X%d false", s, r.m.States[s].Guard))
		}
	}
}

// prune records that child subtree c is skipped.
func (r *run) prune(c int32, reason string) {
	r.stats.SkippedSubtrees++
	skipped := 0
	if r.ixm != nil {
		skipped = r.ixm.ix.SubtreeSize(c)
		r.stats.SkippedElements += skipped
	}
	if r.trace != nil {
		detail := reason
		if skipped > 0 {
			detail = fmt.Sprintf("%s skipped-elements=%d", reason, skipped)
		}
		r.trace.add(r.cd, c, TracePrune, detail)
	}
}

func findState(states []int32, s int32) (int, bool) {
	lo, hi := 0, len(states)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case states[mid] < s:
			lo = mid + 1
		case states[mid] > s:
			hi = mid
		default:
			return mid, true
		}
	}
	return 0, false
}
