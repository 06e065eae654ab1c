package smoqe

import (
	"context"
	"sync"
	"time"

	"smoqe/internal/guard"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/rewrite"
	"smoqe/internal/trace"
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
// documents. One plan serves every evaluation strategy — HyPE, OptHyPE
// against any document's index, the columnar pass against any columnar
// document — because the per-index pools live inside it (a columnar
// evaluation binds its document afresh and keeps nothing). This is the
// unit the serving layer (internal/server) caches per (view, query) and
// shares across requests.
//
// Lifecycle:
//
//	p, _ := smoqe.PrepareOnView(v, q)   // once: parse → rewrite → compile
//	...
//	res, err := p.Eval(ctx, doc.Root, smoqe.EvalOptions{})   // many times, from any goroutine
//	nodes := res.Nodes
type PreparedQuery struct {
	m       *MFA
	pool    *enginePool
	timings PlanTimings

	// opt maps a document's index to a pool of OptHyPE clones. All clones
	// for one index share that single index (it is read-only after build);
	// the map is tiny — one entry per distinct document the query has been
	// evaluated against with indexing on.
	mu  sync.Mutex
	opt map[*Index]*enginePool // guarded by mu

	// pf is the corpus-level document prefilter, built lazily (most
	// prepared queries never query a collection) and shared — a Prefilter
	// is immutable.
	pfOnce sync.Once
	pf     *hype.Prefilter
}

// PlanTimings records how long each preparation phase of a plan took —
// the per-phase cost breakdown the §7 experiments (and the EXPLAIN
// output) report. Phases that did not run for this plan stay zero: a
// direct Prepare has no Rewrite, a PrepareOnView folds compilation into
// the rewrite, a PrepareMFA did all its work elsewhere.
type PlanTimings struct {
	// Parse is the query parsing time (only when the plan was prepared
	// from concrete syntax).
	Parse time.Duration `json:"parse_ns"`
	// Rewrite is the view rewriting time, including the internal compile
	// and simplification passes (Algorithm rewrite, §5).
	Rewrite time.Duration `json:"rewrite_ns"`
	// Compile is the query→MFA compilation time for direct plans (§4).
	Compile time.Duration `json:"compile_ns"`
}

// Total sums the recorded phases.
func (t PlanTimings) Total() time.Duration { return t.Parse + t.Rewrite + t.Compile }

// Prefilter returns the query's document-level prefilter: a sound,
// fingerprint-only test that a document cannot contain an answer. Built on
// first use and cached; safe for concurrent use.
func (p *PreparedQuery) Prefilter() *hype.Prefilter {
	p.pfOnce.Do(func() { p.pf = hype.NewPrefilter(p.m) })
	return p.pf
}

// enginePool hands out independent clones of one prototype engine.
type enginePool struct {
	pool sync.Pool
}

func newEnginePool(proto *hype.Engine) *enginePool {
	ep := &enginePool{}
	ep.pool.New = func() any { return proto.Clone() }
	return ep
}

// Prepare compiles q into a reusable, concurrency-safe prepared query.
func Prepare(q Query) (*PreparedQuery, error) {
	start := time.Now()
	m, err := mfa.Compile(q)
	if err != nil {
		return nil, err
	}
	p := PrepareMFA(m)
	p.timings.Compile = time.Since(start)
	return p, nil
}

// PrepareString is Prepare for a query in concrete syntax.
func PrepareString(qsrc string) (*PreparedQuery, error) {
	start := time.Now()
	q, err := ParseQuery(qsrc)
	if err != nil {
		return nil, err
	}
	parse := time.Since(start)
	p, err := Prepare(q)
	if err != nil {
		return nil, err
	}
	p.timings.Parse = parse
	return p, nil
}

// PrepareOnView rewrites q (posed on the view) into a source automaton and
// prepares it: each Eval then returns the source nodes backing Q(σ(T))
// without materializing the view.
func PrepareOnView(v *View, q Query) (*PreparedQuery, error) {
	start := time.Now()
	m, err := rewrite.Rewrite(v, q)
	if err != nil {
		return nil, err
	}
	p := PrepareMFA(m)
	p.timings.Rewrite = time.Since(start)
	return p, nil
}

// PrepareStringOnView parses qsrc and rewrites it over v, recording both
// phase timings — the form the serving layer uses so EXPLAIN can report
// the parse/rewrite cost split of a cached plan.
func PrepareStringOnView(v *View, qsrc string) (*PreparedQuery, error) {
	start := time.Now()
	q, err := ParseQuery(qsrc)
	if err != nil {
		return nil, err
	}
	parse := time.Since(start)
	p, err := PrepareOnView(v, q)
	if err != nil {
		return nil, err
	}
	p.timings.Parse = parse
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
// sequential HyPE on the pointer tree, untraced and without budgets.
type EvalOptions struct {
	// Index, when set, evaluates with OptHyPE against this subtree index,
	// which must have been built from the document n belongs to.
	Index *Index
	// Columnar, when set, evaluates over this columnar document from its
	// root instead of over n; Result.IDs then holds the preorder ids of
	// the answers. The columnar pass takes no Index, Workers or Trace.
	Columnar *ColumnarDocument
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

// Eval evaluates the prepared query at n. It honors ctx: the DFS polls the
// context and aborts promptly once it is done, returning ctx's error and
// the partial statistics of the aborted run. Safe to call from any number
// of goroutines concurrently; the Result belongs to this call alone.
//
// The run is recorded as one span of ctx's trace, named after its
// strategy: eval.columnar, eval.traced, eval.parallel, eval.opthype or
// eval.hype.
func (p *PreparedQuery) Eval(ctx context.Context, n *Node, opts EvalOptions) (Result, error) {
	var sp *trace.Span
	switch {
	case opts.Columnar != nil:
		ctx, sp = trace.Start(ctx, "eval.columnar")
	case opts.Trace > 0:
		ctx, sp = trace.Start(ctx, "eval.traced")
	case opts.Workers > 0:
		ctx, sp = trace.Start(ctx, "eval.parallel")
	case opts.Index != nil:
		ctx, sp = trace.Start(ctx, "eval.opthype")
	default:
		ctx, sp = trace.Start(ctx, "eval.hype")
	}
	defer sp.End()
	ep := p.pool
	if opts.Index != nil {
		ep = p.indexPool(opts.Index)
	}
	hopts := hype.Options{Workers: opts.Workers, Trace: opts.Trace, Limits: opts.Limits}
	var res Result
	err := withEngine(ep, func(e *hype.Engine) error {
		var err error
		if opts.Columnar != nil {
			res, err = e.EvalColumnar(ctx, opts.Columnar, hopts)
		} else {
			res, err = e.Eval(ctx, n, hopts)
		}
		return err
	})
	if err != nil {
		sp.Error(err)
	}
	return res, err
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

func (p *PreparedQuery) indexPool(idx *Index) *enginePool {
	p.mu.Lock()
	defer p.mu.Unlock()
	ep, ok := p.opt[idx]
	if !ok {
		if p.opt == nil {
			p.opt = make(map[*Index]*enginePool)
		}
		ep = newEnginePool(hype.NewOpt(p.m, idx))
		p.opt[idx] = ep
	}
	return ep
}
