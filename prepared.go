package smoqe

import (
	"context"
	"errors"
	"sync"
	"time"

	"smoqe/internal/colstore"
	"smoqe/internal/guard"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/rewrite"
	"smoqe/internal/xmltree"
)

// PreparedQuery is a query that has been parsed, (optionally) rewritten
// over a view, compiled to an MFA and bound to a pool of HyPE engines —
// the expensive O(|Q|²|σ||D_V|²) work is done exactly once, evaluation
// happens many times, concurrently.
//
// A PreparedQuery is safe for concurrent use: every Eval borrows an
// independent engine clone from an internal sync.Pool (clones share the
// immutable automaton metadata but keep private run state), so any number
// of goroutines may evaluate simultaneously against the same or different
// documents. One plan serves every evaluation strategy — HyPE, OptHyPE-C
// against any document's index, sequential, traced or shard-parallel —
// and keeps no document: every evaluation binds its document afresh, and
// a clone keeps at most the metadata of the index it last ran on. This is
// the unit the serving layer (internal/server) caches per (view, query)
// and shares across requests.
//
// Lifecycle:
//
//	p, _ := smoqe.Prepare(v, qsrc)   // once: parse → rewrite → compile
//	...
//	res, err := p.Eval(ctx, doc.Root, smoqe.EvalOptions{})   // many times, from any goroutine
//	nodes := res.Nodes
type PreparedQuery struct {
	m       *MFA
	pool    *enginePool
	timings PlanTimings
}

// PlanTimings records how long each preparation phase of a plan took —
// the per-phase cost breakdown the §7 experiments (and the EXPLAIN
// output) report. Phases that did not run for this plan stay zero: a
// direct Prepare has no Rewrite, a Prepare over a view folds compilation
// into the rewrite, a PrepareMFA did all its work elsewhere.
type PlanTimings struct {
	// Parse is the query parsing time (only when Prepare parsed the
	// query).
	Parse time.Duration `json:"parse_ns"`
	// Rewrite is the view rewriting time, including the internal compile
	// and simplification passes (Algorithm rewrite, §5).
	Rewrite time.Duration `json:"rewrite_ns"`
	// Compile is the query→MFA compilation time for direct plans (§4).
	Compile time.Duration `json:"compile_ns"`
}

// Total sums the recorded phases.
func (t PlanTimings) Total() time.Duration { return t.Parse + t.Rewrite + t.Compile }

// enginePool hands out independent clones of one prototype engine.
type enginePool struct {
	pool sync.Pool
}

func newEnginePool(proto *hype.Engine) *enginePool {
	ep := &enginePool{}
	ep.pool.New = func() any { return proto.Clone() }
	return ep
}

// Prepare parses qsrc and compiles it into a reusable, concurrency-safe
// plan. With a non-nil v the query is posed on the view and rewritten over
// it instead (Algorithm rewrite, §5): each Eval then returns the source
// nodes backing Q(σ(T)) without materializing the view. The plan records
// the parse time plus the rewrite or compile time. A caller holding a
// parsed query uses PrepareMFA(Compile(q)) or PrepareMFA(Rewrite(v, q)).
func Prepare(v *View, qsrc string) (*PreparedQuery, error) {
	start := time.Now()
	q, err := ParseQuery(qsrc)
	if err != nil {
		return nil, err
	}
	parsed := time.Now()
	var m *MFA
	if v != nil {
		m, err = rewrite.Rewrite(v, q)
	} else {
		m, err = mfa.Compile(q)
	}
	if err != nil {
		return nil, err
	}
	p := PrepareMFA(m)
	p.timings.Parse = parsed.Sub(start)
	if v != nil {
		p.timings.Rewrite = time.Since(parsed)
	} else {
		p.timings.Compile = time.Since(parsed)
	}
	return p, nil
}

// PrepareMFA wraps an already-built automaton (compiled, rewritten, merged
// or deserialized with ReadMFA) into a prepared query.
func PrepareMFA(m *MFA) *PreparedQuery {
	return &PreparedQuery{m: m, pool: newEnginePool(hype.New(m))}
}

// MFA returns the underlying automaton.
func (p *PreparedQuery) MFA() *MFA { return p.m }

// Timings returns the recorded preparation phase durations.
func (p *PreparedQuery) Timings() PlanTimings { return p.timings }

// EvalOptions selects how one PreparedQuery.Eval runs. The zero value is
// sequential HyPE at the given node, untraced and without budgets.
type EvalOptions struct {
	// Columnar, when set, evaluates over this columnar document from its
	// root instead of at a tree node; Result.IDs holds the preorder ids of
	// the answers and Result.Nodes stays nil.
	Columnar *ColumnarDocument
	// Index, when set, evaluates with OptHyPE-C against this subtree
	// index, which must have been built (BuildIndex) from Columnar; an
	// index of any other document is an error. A call at a tree node
	// converts the node's subtree afresh, so it takes no index.
	Index *Index
	// Workers, when positive, evaluates shard-parallel on at most Workers
	// goroutines, with answers and statistics exactly those of the
	// sequential pass.
	Workers int
	// Trace, when positive, records a per-node decision trace of at most
	// Trace events in Result.Trace. A traced run is sequential.
	Trace int
	// Limits bounds the work of this evaluation; an exceeded budget
	// aborts it with a *EvalLimitError. The zero value is unlimited.
	Limits EvalLimits
}

// Eval evaluates the prepared query over opts.Columnar, or at tree node n
// when opts.Columnar is nil. Evaluation always runs on columns: a call at
// n converts n's subtree once and maps the answers back to its nodes
// (Result.Nodes, Result.Tagged) and its trace events to their ids, depths
// and paths. It honors ctx: the DFS polls the context and aborts promptly
// once it is done, returning ctx's error and the partial statistics of the
// aborted run. Safe to call from any number of goroutines concurrently;
// the Result belongs to this call alone.
func (p *PreparedQuery) Eval(ctx context.Context, n *Node, opts EvalOptions) (Result, error) {
	cd := opts.Columnar
	var nodes []*Node
	if cd == nil {
		if n == nil {
			return Result{}, errors.New("smoqe: Eval needs a node or EvalOptions.Columnar")
		}
		cd, nodes = colstore.FromNode(n)
	}
	hopts := hype.Options{Index: opts.Index, Workers: opts.Workers, Trace: opts.Trace, Limits: opts.Limits}
	var res Result
	err := withEngine(p.pool, func(e *hype.Engine) error {
		var err error
		res.Result, err = e.Eval(ctx, cd, hopts)
		return err
	})
	if nodes != nil {
		res.mapToNodes(nodes)
	}
	return res, err
}

// mapToNodes fills the node answers of a run over the columnar form of a
// tree subtree whose nodes, in preorder, are nodes, and rewrites its trace
// events from preorder ids to the tree's nodes.
func (res *Result) mapToNodes(nodes []*Node) {
	byID := func(ids []int) []*Node {
		if ids == nil {
			return nil
		}
		out := make([]*Node, len(ids))
		for i, id := range ids {
			out[i] = nodes[id]
		}
		return xmltree.SortNodes(out)
	}
	res.Nodes = byID(res.IDs)
	if res.TaggedIDs != nil {
		res.Tagged = make([][]*Node, len(res.TaggedIDs))
		for tag, ids := range res.TaggedIDs {
			res.Tagged[tag] = byID(ids)
		}
	}
	if res.Trace != nil {
		for i := range res.Trace.Events {
			ev := &res.Trace.Events[i]
			nd := nodes[ev.Node]
			ev.Node, ev.Depth, ev.Path = nd.ID, nd.Depth, nd.Path()
		}
	}
}

// withEngine runs fn with an engine clone borrowed from ep — the single
// chokepoint of every evaluation. It isolates panics: a panic inside fn (a
// poisoned query/document pair, an injected fault) becomes a
// *guard.PanicError return, and the clone — whose internal state is
// suspect after unwinding mid-DFS — is dropped instead of re-pooled, so
// one poisoned run can never contaminate later borrowers.
func withEngine(ep *enginePool, fn func(e *hype.Engine) error) (err error) {
	e := ep.pool.Get().(*hype.Engine)
	defer func() {
		if r := recover(); r != nil {
			err = guard.Recovered("eval", r)
			return
		}
		ep.pool.Put(e)
	}()
	return fn(e)
}
