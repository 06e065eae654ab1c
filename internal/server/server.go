package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smoqe"
	"smoqe/internal/colstore"
	"smoqe/internal/corpus"
	"smoqe/internal/failpoint"
	"smoqe/internal/guard"
	"smoqe/internal/hype"
	"smoqe/internal/telemetry"
	"smoqe/internal/trace"
)

// Config tunes a Server.
type Config struct {
	// CacheSize is the plan-cache capacity in plans (default 256).
	CacheSize int
	// RequestTimeout bounds one query evaluation (default 30s; 0 keeps
	// the default, negative disables the bound).
	RequestTimeout time.Duration
	// MaxPaths caps how many node paths a response carries when the
	// request asks for paths (default 1000; negative disables the cap).
	MaxPaths int
	// TraceLimit caps the per-node trace returned for "explain" requests
	// (default hype.DefaultTraceLimit).
	TraceLimit int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// handler. Off by default: profiles expose internals and cost CPU.
	EnablePprof bool
	// MaxConcurrentEvals bounds how many evaluations run at once
	// (admission control). 0 disables the bound; requests beyond the limit
	// queue up to QueueWait and are then shed with ErrOverloaded (HTTP
	// 429 + Retry-After).
	MaxConcurrentEvals int
	// QueueWait is how long an arriving request may wait for an
	// evaluation slot before being shed (default 100ms when
	// MaxConcurrentEvals is set).
	QueueWait time.Duration
	// EvalLimits bounds how much work one evaluation may do (visited
	// elements, accumulated result candidates); exceeded budgets return a
	// structured error (HTTP 422). Zero fields are unlimited.
	EvalLimits smoqe.EvalLimits
	// ParseLimits bounds the documents clients may register (nesting
	// depth, node count, raw bytes); oversized documents are refused with
	// a structured error (HTTP 413). Snapshots are held to the depth and
	// node bounds; the body cap bounds their bytes. Zero fields are
	// unlimited.
	ParseLimits smoqe.ParseLimits
	// MaxBodyBytes caps one HTTP request body (default 64 MiB; negative
	// disables the cap). Oversized bodies get HTTP 413.
	MaxBodyBytes int64
	// BreakerThreshold is the consecutive server-fault count (panics,
	// injected faults, timeouts) that opens a view's circuit breaker
	// (default 5; negative disables breakers).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects requests before
	// admitting a half-open probe (default 5s).
	BreakerCooldown time.Duration
	// ReadTimeout/WriteTimeout/IdleTimeout configure the HTTP server run
	// by Serve. Defaults: ReadTimeout 30s, WriteTimeout RequestTimeout+30s
	// (slack for serialization after a full-length evaluation), IdleTimeout
	// 120s. Negative disables the respective timeout.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	IdleTimeout  time.Duration
	// TraceStoreSize caps how many request traces the tail-based trace
	// store retains, served at GET /traces (default 256; negative disables
	// tracing entirely — requests pay zero tracing cost).
	TraceStoreSize int
	// TraceSampleEvery paces the retention of unremarkable request traces
	// (no error, under the latency threshold, no "trace": true): one is
	// kept when at least this long has passed since the last sampled one
	// ended (default 1s; negative disables sampling).
	TraceSampleEvery time.Duration
	// TraceLatencyRetention is the one slow-request threshold (default
	// 250ms; negative disables). A /query evaluation at least this long is
	// slow: it is counted in smoqe_slow_queries_total and its details are
	// copied onto the request's root span. Every trace whose root span ran
	// at least this long is retained, so each slow HTTP query's trace is
	// kept and GET /slow lists it.
	TraceLatencyRetention time.Duration
	// CorpusScanInterval is the corpus background rescan period (default
	// 2s). It also paces retries: a document whose indexing failed is
	// retried on the next scan. Only meaningful after OpenCorpus.
	CorpusScanInterval time.Duration
	// CorpusMaxConcurrentQueries bounds concurrent fan-out queries per
	// collection (default 4; negative disables the bound). Excess requests
	// queue up to QueueWait and are then shed with ErrOverloaded.
	CorpusMaxConcurrentQueries int
	// CorpusLogf receives corpus operational messages (quarantines,
	// manifest recovery fallbacks). Nil means silent.
	CorpusLogf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxPaths == 0 {
		c.MaxPaths = 1000
	}
	if c.TraceLimit == 0 {
		c.TraceLimit = hype.DefaultTraceLimit
	}
	if c.CorpusMaxConcurrentQueries == 0 {
		c.CorpusMaxConcurrentQueries = 4
	}
	if (c.MaxConcurrentEvals > 0 || c.CorpusMaxConcurrentQueries > 0) && c.QueueWait == 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = c.RequestTimeout + 30*time.Second
		if c.RequestTimeout < 0 {
			c.WriteTimeout = -1 // unbounded evaluations need unbounded writes
		}
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 120 * time.Second
	}
	if c.TraceStoreSize == 0 {
		c.TraceStoreSize = 256
	}
	if c.TraceLatencyRetention == 0 {
		c.TraceLatencyRetention = 250 * time.Millisecond
	}
	return c
}

// ErrOverloaded is returned when admission control sheds a request: every
// evaluation slot stayed busy for the full queue-wait deadline. The HTTP
// layer maps it to 429 Too Many Requests with a Retry-After header.
var ErrOverloaded = errors.New("server: overloaded, retry later")

// errNotRegistered marks a request that names an unknown document, view
// or collection; the HTTP layer answers it with 404.
var errNotRegistered = errors.New("not registered")

// Server answers regular XPath queries over registered documents and
// views. It is safe for concurrent use: the registry copy-on-registers,
// plans are cached and shared, and every evaluation runs on a pooled
// engine clone.
type Server struct {
	cfg   Config
	reg   *Registry
	cache *PlanCache
	start time.Time
	met   *metrics
	// sem is the admission-control semaphore (nil when unbounded): one
	// slot per concurrently running evaluation.
	sem chan struct{}
	// busy counts the goroutines running an evaluation pass: 1 for a
	// sequential /query, its workers for a shard-parallel one, and each
	// fan-out pool worker while it evaluates a document. A /query that
	// leaves the choice to the server uses the Ps the others leave idle.
	busy atomic.Int64
	// brk holds the circuit breakers, one per view and one per collection
	// (keyed "collection/<name>"); a non-positive threshold disables them.
	brk *breakerGroup
	// tracer starts per-request traces (nil when tracing is disabled).
	tracer *trace.Tracer
	// corpus is the attached collection manager (nil until OpenCorpus).
	corpus *corpus.Manager
	// corpusSems holds the per-collection admission semaphores, created
	// lazily on first query.
	corpusSemMu sync.Mutex
	corpusSems  map[string]chan struct{} // guarded by corpusSemMu
}

// New returns a server with an empty registry.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		reg:        NewRegistry(),
		cache:      NewPlanCache(cfg.CacheSize),
		start:      time.Now(),
		corpusSems: make(map[string]chan struct{}),
	}
	if cfg.MaxConcurrentEvals > 0 {
		s.sem = make(chan struct{}, cfg.MaxConcurrentEvals)
	}
	s.brk = newBreakerGroup(cfg.BreakerThreshold, cfg.BreakerCooldown)
	s.met = newMetrics(s)
	s.brk.onTransition = s.met.breakerTransition
	if cfg.TraceStoreSize > 0 {
		s.tracer = trace.New(trace.Config{
			Capacity:         cfg.TraceStoreSize,
			SampleEvery:      cfg.TraceSampleEvery,
			LatencyThreshold: cfg.TraceLatencyRetention,
		})
	}
	return s
}

// Registry exposes the server's document/view registry.
func (s *Server) Registry() *Registry { return s.reg }

// Cache exposes the server's plan cache.
func (s *Server) Cache() *PlanCache { return s.cache }

// Telemetry exposes the server's metrics registry (served at /metrics).
func (s *Server) Telemetry() *telemetry.Registry { return s.met.reg }

// Traces exposes the tail-based trace store (served at /traces, and
// filtered to slow queries at /slow), or nil when tracing is disabled
// (negative Config.TraceStoreSize).
func (s *Server) Traces() *trace.Store {
	if s.tracer == nil {
		return nil
	}
	return s.tracer.Store()
}

// RegisterView registers (or replaces) a view and invalidates every cached
// plan that was rewritten over its previous definition. A name that begins
// with "collection/" is refused: it would share that collection's breaker.
func (s *Server) RegisterView(name string, v *smoqe.View) (*ViewEntry, error) {
	if strings.HasPrefix(name, collectionBreakerPrefix) {
		return nil, fmt.Errorf("server: view %q: the %q prefix is reserved for collections", name, collectionBreakerPrefix)
	}
	e, err := s.reg.registerView(name, v)
	if err == nil {
		s.cache.RemoveView(name)
	}
	return e, err
}

// RegisterViewSpec is RegisterView from textual DTDs and specification.
func (s *Server) RegisterViewSpec(name, spec, sourceDTD, targetDTD string) (*ViewEntry, error) {
	src, err := smoqe.ParseDTD(sourceDTD)
	if err != nil {
		return nil, fmt.Errorf("server: view %q: source DTD: %w", name, err)
	}
	tgt, err := smoqe.ParseDTD(targetDTD)
	if err != nil {
		return nil, fmt.Errorf("server: view %q: target DTD: %w", name, err)
	}
	v, err := smoqe.ParseView(spec, src, tgt)
	if err != nil {
		return nil, fmt.Errorf("server: view %q: %w", name, err)
	}
	return s.RegisterView(name, v)
}

// LoadDocument decodes a snapshot or XML document from r under
// Config.ParseLimits (colstore.Decode) and registers it under name: the one
// way outside bytes become a served document (POST /docs, POST /snapshot,
// LoadSnapshotDir, smoqed -doc). It runs under a "snapshot.load" or "parse"
// span, counts a parse-limit refusal in smoqe_limit_exceeded_total and a
// loaded snapshot in smoqe_snapshot_loads_total and _load_seconds.
func (s *Server) LoadDocument(ctx context.Context, name string, r io.Reader, snapshot bool) (*DocEntry, error) {
	var sp *trace.Span
	if snapshot {
		_, sp = trace.Start(ctx, "snapshot.load")
	} else {
		_, sp = trace.Start(ctx, "parse")
	}
	defer sp.End()
	sp.Attr("doc", name)
	start := time.Now()
	entry, err := s.loadDocument(name, r, snapshot)
	if err != nil {
		var fe *failpoint.Error
		var ple *smoqe.ParseLimitError
		switch {
		case errors.As(err, &fe):
			sp.Event("failpoint", "site", fe.Site)
		case errors.As(err, &ple):
			s.met.limitExceeded("doc-" + ple.What)
		}
		sp.Error(err)
		return nil, err
	}
	if snapshot {
		s.met.snapshotLoads.Inc()
		s.met.snapshotLoadTime.Observe(time.Since(start).Seconds())
	}
	sp.AttrInt("elements", int64(entry.Stats.Elements))
	return entry, nil
}

// loadDocument is LoadDocument without its span and metrics.
func (s *Server) loadDocument(name string, r io.Reader, snapshot bool) (*DocEntry, error) {
	if name == "" {
		return nil, errNoDocName
	}
	cd, err := colstore.Decode(r, snapshot, s.cfg.ParseLimits)
	if err != nil {
		return nil, fmt.Errorf("server: document %q: %w", name, err)
	}
	return s.reg.Register(name, cd)
}

// LoadSnapshotDir registers every "*.smoqe-snapshot" file in dir as a
// document named after its base name (corpus.smoqe-snapshot → "corpus").
// It returns how many snapshots were registered, plus one error per
// unreadable, corrupt or over-limit (Config.ParseLimits) snapshot that was
// skipped: a single bad file must not keep the daemon (and every healthy
// snapshot) down. Only an unreadable directory fails the scan itself.
// Intended for startup (smoqed -snapshot-dir), before traffic arrives.
func (s *Server) LoadSnapshotDir(dir string) (loaded int, skipped []error, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, nil, fmt.Errorf("server: snapshot dir: %w", err)
	}
	for _, de := range entries {
		if de.IsDir() || !strings.HasSuffix(de.Name(), smoqe.SnapshotFileExt) {
			continue
		}
		f, err := os.Open(filepath.Join(dir, de.Name()))
		if err == nil {
			name := strings.TrimSuffix(de.Name(), smoqe.SnapshotFileExt)
			_, err = s.LoadDocument(context.Background(), name, f, true)
			f.Close()
		}
		if err != nil {
			skipped = append(skipped, fmt.Errorf("%s: %w", de.Name(), err))
			continue
		}
		loaded++
	}
	return loaded, skipped, nil
}

// QueryRequest asks for one evaluation.
type QueryRequest struct {
	// Doc names the registered document to evaluate against.
	Doc string `json:"doc"`
	// View optionally names a registered view; the query is then posed on
	// the view and rewritten to the source (the document never leaves the
	// server, the view is never materialized).
	View string `json:"view,omitempty"`
	// Query is the regular XPath query text.
	Query string `json:"query"`
	// Engine selects "hype" (default), "opthype" or "columnar".
	Engine EngineKind `json:"engine,omitempty"`
	// Paths asks for the result nodes' paths, not just counts and IDs.
	Paths bool `json:"paths,omitempty"`
	// Explain asks for the plan's Theorem 5.1 size accounting, phase
	// timings and a capped per-node evaluation trace in the response.
	Explain bool `json:"explain,omitempty"`
	// Parallelism caps the shard-parallel workers of this evaluation: 1
	// evaluates sequentially, N uses at most N. 0 or negative leaves the
	// choice to the server, which uses the Ps no other evaluation is
	// using (GOMAXPROCS minus the goroutines evaluating), at most one per
	// elementsPerWorker elements of the document. The evaluation is
	// sequential when that leaves fewer than two workers or when the
	// request asks for explain.
	Parallelism int `json:"parallelism,omitempty"`
	// Trace forces this request's trace to be retained regardless of the
	// tail-based sampling decision, and echoes the trace ID in the
	// response body; fetch the span tree from GET /traces/{id}.
	Trace bool `json:"trace,omitempty"`
}

// QueryExplain is the EXPLAIN payload of a response: what the plan looks
// like and what the engine did, node by node (capped).
type QueryExplain struct {
	// Plan is the Theorem 5.1 size accounting of the (rewritten) MFA.
	Plan smoqe.PlanExplain `json:"plan"`
	// Timings reports the plan's preparation phase durations in
	// nanoseconds, recorded when the plan was built; a cache hit returns
	// the building request's numbers.
	Timings smoqe.PlanTimings `json:"timings"`
	// Trace is the capped per-node decision log of this evaluation.
	Trace *smoqe.Trace `json:"trace"`
}

// QueryResponse is the answer to one QueryRequest.
type QueryResponse struct {
	Count    int      `json:"count"`
	IDs      []int    `json:"ids"`
	Paths    []string `json:"paths,omitempty"`
	CacheHit bool     `json:"cache_hit"`
	// Elapsed is the evaluation wall time in microseconds.
	ElapsedMicros int64 `json:"elapsed_us"`
	// Visited/Skipped/SkippedElements/AFAEvals are exactly this run's
	// HyPE statistics: every evaluation runs on a private engine clone
	// that reports its Stats by value, so the numbers are exact no
	// matter how many requests share the plan.
	Visited         int `json:"visited_elements"`
	Skipped         int `json:"skipped_subtrees"`
	SkippedElements int `json:"skipped_elements,omitempty"`
	AFAEvals        int `json:"afa_evaluations"`
	// Shards/Workers report how a shard-parallel evaluation cut the
	// document and how many workers ran it; both are zero for sequential
	// runs.
	Shards  int `json:"shards,omitempty"`
	Workers int `json:"workers,omitempty"`
	// Engine echoes the engine that evaluated the request: the requested
	// one, or hype by default.
	Engine EngineKind `json:"engine"`
	// Explain is present when the request set "explain": true.
	Explain *QueryExplain `json:"explain,omitempty"`
	// TraceID is present when the request set "trace": true: the retained
	// trace's ID, fetchable from GET /traces/{id}. (Every HTTP response
	// also carries it in the X-Smoqe-Trace-Id header; the body copy exists
	// so it survives JSON-only plumbing.)
	TraceID string `json:"trace_id,omitempty"`
}

// Query answers one request, honoring ctx (and the configured request
// timeout) for cancellation.
func (s *Server) Query(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	s.met.requests.Inc()
	if req.Trace {
		// Forced before any early return so even a failed traced request
		// is fetchable from /traces.
		trace.FromContext(ctx).Force()
	}
	resp, err := s.query(ctx, req)
	if err != nil {
		s.failed(ctx, err)
	}
	return resp, err
}

// failed records one failed request, /query or collection fan-out: in the
// failure metrics (recovered panics by site, exceeded limits by cause) and
// on its root span, the span of ctx — the error itself, which makes the
// trace eligible for unconditional retention, plus the classified event
// the tail-based rules key on: shed, breaker-open, panic, failpoint,
// limit-exceeded.
func (s *Server) failed(ctx context.Context, err error) {
	s.met.failures.Inc()
	sp := trace.FromContext(ctx)
	sp.Error(err)
	var boe *BreakerOpenError
	var pe *guard.PanicError
	var fe *failpoint.Error
	var ele *smoqe.EvalLimitError
	switch {
	case errors.Is(err, ErrOverloaded):
		sp.Event("shed")
	case errors.As(err, &boe):
		sp.Event("breaker-open", "view", boe.View)
	case errors.As(err, &pe):
		s.met.panicked(pe.Site)
		sp.Event("panic", "site", pe.Site)
	case errors.As(err, &fe):
		sp.Event("failpoint", "site", fe.Site)
	case errors.As(err, &ele):
		s.met.limitExceeded("eval-" + ele.What)
		sp.Event("limit-exceeded", "what", ele.What)
	}
}

// isServerFault reports whether a failed request indicates the server side
// is unhealthy for its (view, query) class — the outcomes a circuit breaker
// must count. Panics, injected faults and timeouts qualify; client-caused
// failures (bad queries, exceeded budgets, cancellations, shed load) do
// not: a breaker guards against evaluations that break the server, not
// against clients who send garbage.
func isServerFault(err error) bool {
	var pe *guard.PanicError
	var fe *failpoint.Error
	return errors.As(err, &pe) || errors.As(err, &fe) || errors.Is(err, context.DeadlineExceeded)
}

// guarded is the one request path of /query and collection fan-outs. In
// order: an open breaker bkey refuses the request before any plan or slot
// is spent on it; the plan of (view, query) comes from the plan cache; ctx
// is bounded by Config.RequestTimeout; a slot of sem is taken (nil:
// unbounded); then run runs. A panic becomes the returned
// *guard.PanicError. Every admitted request reports its outcome back to
// breaker bkey, a server fault counting against it, including the
// half-open probe that decides recovery.
func (s *Server) guarded(ctx context.Context, bkey string, view *ViewEntry, query string, sem chan struct{},
	run func(ctx context.Context, plan *smoqe.PreparedQuery, hit bool) error) (err error) {
	if ok, retry := s.brk.allow(bkey); !ok {
		s.met.breakerRejected.Inc()
		return &BreakerOpenError{View: bkey, RetryAfter: retry}
	}
	defer func() {
		s.brk.record(bkey, err != nil && isServerFault(err))
	}()
	// A panic that escapes run — the respond fault site, or anything the
	// evaluation boundary does not cover — is this request's failure: the
	// breaker counts it, and the caller records and answers it.
	defer guard.Recover("server.request", &err)
	plan, hit, err := s.plan(ctx, view, query)
	if err != nil {
		return err
	}
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	if sem != nil {
		if err := s.admit(ctx, sem); err != nil {
			return err
		}
		defer func() { <-sem }()
	}
	return run(ctx, plan, hit)
}

func (s *Server) query(ctx context.Context, req QueryRequest) (resp *QueryResponse, err error) {
	if req.Query == "" {
		return nil, fmt.Errorf("server: empty query")
	}
	engine := req.Engine
	switch engine {
	case "":
		engine = EngineHyPE
	case EngineHyPE, EngineOptHyPE, EngineColumnar:
	default:
		return nil, fmt.Errorf("server: unknown engine %q (want %q, %q or %q)", engine, EngineHyPE, EngineOptHyPE, EngineColumnar)
	}
	doc, view, err := s.resolve(ctx, req)
	if err != nil {
		return nil, err
	}
	err = s.guarded(ctx, req.View, view, req.Query, s.sem, func(ctx context.Context, plan *smoqe.PreparedQuery, hit bool) error {
		start := time.Now()
		res, err := s.evaluate(ctx, plan, doc, engine, req.Explain, req.Parallelism)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)

		resp = &QueryResponse{
			Count:         len(res.IDs),
			IDs:           res.IDs,
			CacheHit:      hit,
			ElapsedMicros: elapsed.Microseconds(),
			// res.Stats came by value from this run's private engine clone,
			// so these are exact even with concurrent requests on the plan.
			Visited:         res.Stats.VisitedElements,
			Skipped:         res.Stats.SkippedSubtrees,
			SkippedElements: res.Stats.SkippedElements,
			AFAEvals:        res.Stats.AFAEvaluations,
			Shards:          res.Shards,
			Workers:         res.Workers,
			Engine:          engine,
		}
		if res.Shards > 0 {
			s.met.parallelEvals.Inc()
			s.met.shards.Add(int64(res.Shards))
		}
		s.met.visited.Add(int64(resp.Visited))
		s.met.skippedSub.Add(int64(resp.Skipped))
		s.met.skippedEle.Add(int64(resp.SkippedElements))
		s.met.afaEvals.Add(int64(resp.AFAEvals))
		s.met.observeQuery(req.View, resp.Engine, elapsed)
		root := trace.FromContext(ctx)
		if tid := root.TraceID(); req.Trace && !tid.IsZero() {
			resp.TraceID = tid.String()
		}
		if s.isSlow(elapsed) {
			s.met.slowQueries.Inc()
			markSlow(root, req, resp)
		}
		if req.Explain {
			resp.Explain = s.explain(req, view, plan, res.Trace)
		}
		if req.Paths {
			n := len(res.IDs)
			if s.cfg.MaxPaths >= 0 {
				n = min(n, s.cfg.MaxPaths)
			}
			resp.Paths = doc.Col.Paths(res.IDs[:n])
		}
		// The respond fault site covers the window between a successful
		// evaluation and handing the response back: the evaluation was fine
		// but the client never gets its answer. Injected here — not in the
		// HTTP handler — so the guard's breaker record sees the fault and
		// consecutive respond faults accumulate toward the threshold.
		return failpoint.Inject(failpoint.SiteServerRespond)
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// resolve looks up the request's document and (optional) view — the
// "registry" span of a traced request.
func (s *Server) resolve(ctx context.Context, req QueryRequest) (*DocEntry, *ViewEntry, error) {
	_, sp := trace.Start(ctx, "registry")
	defer sp.End()
	doc, ok := s.reg.Document(req.Doc)
	if !ok {
		err := fmt.Errorf("server: document %q %w", req.Doc, errNotRegistered)
		sp.Error(err)
		return nil, nil, err
	}
	var view *ViewEntry
	if req.View != "" {
		if view, ok = s.reg.View(req.View); !ok {
			err := fmt.Errorf("server: view %q %w", req.View, errNotRegistered)
			sp.Error(err)
			return nil, nil, err
		}
	}
	return doc, view, nil
}

// plan fetches or builds the prepared plan of query over view (nil: the
// source) — the "plan" span of a traced request, with the cache outcome
// (hit, single-flight build or wait) recorded as an event.
func (s *Server) plan(ctx context.Context, view *ViewEntry, query string) (*smoqe.PreparedQuery, bool, error) {
	ctx, sp := trace.Start(ctx, "plan")
	defer sp.End()
	key := PlanKey{Query: query}
	if view != nil {
		key.View, key.ViewGen = view.Name, view.Gen
	}
	plan, outcome, err := s.cache.GetOrBuildOutcome(key, func() (*smoqe.PreparedQuery, error) {
		return s.buildPlan(ctx, view, query)
	})
	switch outcome {
	case PlanCacheHit:
		sp.Event("cache-hit")
	case PlanCacheBuilt:
		sp.Event("cache-miss-built")
	case PlanCacheWaited:
		sp.Event("cache-miss-waited")
	}
	if err != nil {
		sp.Error(err)
		return nil, false, err
	}
	return plan, outcome == PlanCacheHit, nil
}

// buildPlan runs the parse → rewrite → compile pipeline for one cache
// miss — the "plan.build" span, which only the single-flight winner runs.
func (s *Server) buildPlan(ctx context.Context, view *ViewEntry, query string) (*smoqe.PreparedQuery, error) {
	_, sp := trace.Start(ctx, "plan.build")
	defer sp.End()
	if err := failpoint.Inject(failpoint.SiteServerPlanBuild); err != nil {
		sp.Event("failpoint", "site", failpoint.SiteServerPlanBuild)
		err = fmt.Errorf("server: query: %w", err)
		sp.Error(err)
		return nil, err
	}
	var v *smoqe.View
	if view != nil {
		v = view.View
	}
	p, err := smoqe.Prepare(v, query)
	if err != nil {
		err = fmt.Errorf("server: query: %w", err)
		sp.Error(err)
		return nil, err
	}
	return p, nil
}

// explain assembles the EXPLAIN payload: the Theorem 5.1 accounting needs
// the query AST, which the cached plan no longer holds, so the query text
// is re-parsed (cheap next to any evaluation; this is a debug path).
func (s *Server) explain(req QueryRequest, view *ViewEntry, plan *smoqe.PreparedQuery, tr *smoqe.Trace) *QueryExplain {
	var q smoqe.Query
	if parsed, err := smoqe.ParseQuery(req.Query); err == nil {
		q = parsed
	}
	var v *smoqe.View
	if view != nil {
		v = view.View
	}
	return &QueryExplain{
		Plan:    smoqe.ExplainPlan(q, v, plan.MFA()),
		Timings: plan.Timings(),
		Trace:   tr,
	}
}

// admit takes a slot of the admission semaphore sem — the global one for
// single-document evaluations, or a collection's for fan-outs — under the
// "admit" span, which records a shed or cancelled outcome. A request that
// finds every slot busy queues up to QueueWait and is then shed with
// ErrOverloaded — bounded latency instead of unbounded goroutine pile-up.
// On success the caller owns the slot and releases it with <-sem.
func (s *Server) admit(ctx context.Context, sem chan struct{}) error {
	_, sp := trace.Start(ctx, "admit")
	defer sp.End()
	select {
	case sem <- struct{}{}: // fast path: a slot is free
		s.met.queueWait.Observe(0)
		return nil
	default:
	}
	start := time.Now()
	timer := time.NewTimer(s.cfg.QueueWait)
	defer timer.Stop()
	select {
	case sem <- struct{}{}:
		s.met.queueWait.Observe(time.Since(start).Seconds())
		return nil
	case <-timer.C:
		s.met.shed.Inc()
		sp.Event("shed")
		sp.Error(ErrOverloaded)
		return ErrOverloaded
	case <-ctx.Done():
		s.met.cancelled.Inc()
		sp.Event("cancelled")
		sp.Error(ctx.Err())
		return ctx.Err()
	}
}

// isSlow reports whether an evaluation that took elapsed meets the slow
// threshold (inclusive; a negative threshold disables it).
func (s *Server) isSlow(elapsed time.Duration) bool {
	t := s.cfg.TraceLatencyRetention
	return t >= 0 && elapsed >= t
}

// elementsPerWorker is how many document elements each shard worker of a
// /query needs: a document of n elements evaluates with at most
// n/elementsPerWorker workers, sequentially below 2. It is the measured
// break-even of two workers, in process on a 2-vCPU VM (Go 1.24,
// GOMAXPROCS 2), summing the median times of the nine doc_hot queries with
// and without the index: two workers ran 0.98× as fast as the sequential
// pass on a 150-patient datagen document (6,721 elements) and 1.05–1.11× as
// fast on a 200-patient one (9,075 elements). Bounding each worker's share,
// not the document, keeps more Ps from cutting a document finer than that
// break-even. The 175-node sample document and the 40–110-patient corpus
// documents evaluate sequentially.
const elementsPerWorker = 4500

// reserveWorkers counts one /query evaluation's goroutines into s.busy and
// returns how many: 1 (sequential) for an explain request or an ask of 1;
// otherwise the Ps no other evaluation is using, at most one per
// elementsPerWorker elements of the document and at most a positive ask,
// and 1 when that leaves fewer than 2. The caller releases them with
// s.busy.Add(-n).
func (s *Server) reserveWorkers(ask int, explain bool, doc *DocEntry) int {
	for {
		b := s.busy.Load()
		n := 1
		if !explain && ask != 1 {
			n = min(runtime.GOMAXPROCS(0)-int(b), doc.Stats.Elements/elementsPerWorker)
			if ask > 1 {
				n = min(n, ask)
			}
			n = max(n, 1)
		}
		if s.busy.CompareAndSwap(b, b+int64(n)) {
			return n
		}
	}
}

// evaluate runs the plan against the document synchronously, honoring ctx:
// the engine polls the context and aborts the DFS promptly when the client
// disconnects or the request timeout fires, so cancelled requests stop
// burning CPU (recorded in smoqe_cancelled_total). Every engine evaluates
// the document's columnar form with the same pass; opthype adds the
// document's index. The request maps to one set of evaluation options,
// always carrying the server's budgets. Traced (EXPLAIN) runs stay
// sequential — a trace is a single decision log; otherwise the evaluation
// fans independent subtrees out to the workers reserveWorkers grants,
// which count as busy until evaluate returns, before the response is
// built.
func (s *Server) evaluate(ctx context.Context, plan *smoqe.PreparedQuery, doc *DocEntry, engine EngineKind, traced bool, ask int) (smoqe.Result, error) {
	ctx, sp := trace.Start(ctx, "eval")
	defer sp.End()
	sp.Attr("engine", string(engine))
	opts := smoqe.EvalOptions{Columnar: doc.Col, Limits: s.cfg.EvalLimits}
	if traced {
		opts.Trace = s.cfg.TraceLimit
	}
	if engine == EngineOptHyPE {
		opts.Index = doc.Index()
	}
	n := s.reserveWorkers(ask, traced, doc)
	if n > 1 {
		opts.Workers = n
	}
	defer s.busy.Add(-int64(n))
	res, err := plan.Eval(ctx, nil, opts)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.met.cancelled.Inc()
			sp.Event("cancelled")
		}
		err = fmt.Errorf("server: query on %q: %w", doc.Name, err)
		sp.Error(err)
		return smoqe.Result{}, err
	}
	if res.Shards > 0 {
		sp.AttrInt("shards", int64(res.Shards))
		sp.AttrInt("workers", int64(res.Workers))
	}
	return res, nil
}

// Stats is the server-wide statistics snapshot served at /stats.
type Stats struct {
	UptimeSeconds float64    `json:"uptime_seconds"`
	Requests      int64      `json:"requests"`
	Failures      int64      `json:"failures"`
	Documents     int        `json:"documents"`
	Views         int        `json:"views"`
	Cache         CacheStats `json:"cache"`
	// Engine statistics aggregated across every evaluation. Each request
	// adds its run's private Stats value here, so summing the
	// per-response numbers of all completed requests reproduces these
	// aggregates exactly.
	VisitedElements int64 `json:"visited_elements"`
	SkippedSubtrees int64 `json:"skipped_subtrees"`
	SkippedElements int64 `json:"skipped_elements"`
	AFAEvaluations  int64 `json:"afa_evaluations"`
	SlowQueries     int64 `json:"slow_queries"`
	// Shed counts requests rejected by admission control (HTTP 429);
	// Cancelled counts evaluations aborted by context cancellation or the
	// request timeout.
	Shed      int64 `json:"shed"`
	Cancelled int64 `json:"cancelled"`
	// Panics counts panics recovered at evaluation and serving boundaries;
	// LimitExceeded counts requests refused over resource limits;
	// BreakerRejected counts requests shed by an open circuit breaker.
	Panics          int64 `json:"panics"`
	LimitExceeded   int64 `json:"limit_exceeded"`
	BreakerRejected int64 `json:"breaker_rejected"`
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	return Stats{
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Requests:        s.met.requests.Value(),
		Failures:        s.met.failures.Value(),
		Documents:       len(s.reg.Documents()),
		Views:           len(s.reg.Views()),
		Cache:           s.cache.Stats(),
		VisitedElements: s.met.visited.Value(),
		SkippedSubtrees: s.met.skippedSub.Value(),
		SkippedElements: s.met.skippedEle.Value(),
		AFAEvaluations:  s.met.afaEvals.Value(),
		SlowQueries:     s.met.slowQueries.Value(),
		Shed:            s.met.shed.Value(),
		Cancelled:       s.met.cancelled.Value(),
		Panics:          s.met.panicsAll.Load(),
		LimitExceeded:   s.met.limitsAll.Load(),
		BreakerRejected: s.met.breakerRejected.Value(),
	}
}

// HealthInfo is the build and liveness report served at /healthz.
type HealthInfo struct {
	Status        string    `json:"status"`
	Module        string    `json:"module"`
	Version       string    `json:"version"`
	GoVersion     string    `json:"go_version"`
	Started       time.Time `json:"started"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	// Breakers maps each view that has seen traffic to its circuit-breaker
	// state ("closed", "open", "half-open"); the empty key is the
	// direct-document breaker and "collection/<name>" keys are collection
	// fan-out breakers. Omitted when breakers are disabled or idle. Any
	// open breaker degrades Status to "degraded".
	Breakers map[string]string `json:"breakers,omitempty"`
	// Corpus maps each collection to its serving state. Present only when
	// a corpus is attached. A degraded collection (quarantined documents or
	// a stale index) keeps serving its last good generation but degrades
	// Status to "degraded".
	Corpus map[string]corpus.CollectionInfo `json:"corpus,omitempty"`
}

// Health returns the server's build/version/uptime report.
func (s *Server) Health() HealthInfo {
	h := HealthInfo{
		Status:        "ok",
		GoVersion:     runtime.Version(),
		Started:       s.start,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Breakers:      s.brk.snapshot(),
	}
	for _, state := range h.Breakers {
		if state != breakerClosed {
			h.Status = "degraded"
			break
		}
	}
	var corpusDegraded bool
	if h.Corpus, corpusDegraded = s.corpusHealth(); corpusDegraded {
		h.Status = "degraded"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		h.Module = bi.Main.Path
		h.Version = bi.Main.Version
	}
	if h.Version == "" {
		// Match the smoqe_build_info gauge so dashboards can join the two.
		h.Version = "(devel)"
	}
	return h
}
