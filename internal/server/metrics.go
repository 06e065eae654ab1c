package server

import (
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sync/atomic"
	"time"

	"smoqe/internal/corpus"
	"smoqe/internal/telemetry"
)

// metrics bundles the server's telemetry handles. Cumulative engine work
// (visited/skipped/AFA-eval counters) is added from each run's private
// Stats value, so per-request deltas and the aggregates agree exactly
// under any concurrency.
type metrics struct {
	reg *telemetry.Registry

	requests    *telemetry.Counter
	failures    *telemetry.Counter
	visited     *telemetry.Counter
	skippedSub  *telemetry.Counter
	skippedEle  *telemetry.Counter
	afaEvals    *telemetry.Counter
	slowQueries *telemetry.Counter
	// Backpressure and parallelism (PR 3): shed counts 429s from
	// admission control, cancelled counts evaluations aborted by context
	// cancellation, queueWait observes time spent waiting for an
	// evaluation slot, parallelEvals/shards account shard-parallel runs.
	shed          *telemetry.Counter
	cancelled     *telemetry.Counter
	parallelEvals *telemetry.Counter
	shards        *telemetry.Counter
	queueWait     *telemetry.Histogram
	// Fault tolerance (PR 4): breakerRejected counts requests shed by an
	// open circuit breaker; panicsAll/limitsAll are the unlabeled totals
	// behind /stats. The labeled families — smoqe_panics_total{site},
	// smoqe_limit_exceeded_total{cause}, smoqe_breaker_transitions_total and
	// smoqe_breaker_state — are registered on demand via the methods below.
	breakerRejected *telemetry.Counter
	panicsAll       atomic.Int64
	limitsAll       atomic.Int64
	// Columnar snapshots (PR 6): snapshotLoads counts snapshots registered
	// into the registry (startup dir scan + POST /snapshot), snapshotSaves
	// counts snapshots serialized out (GET /snapshot), snapshotLoadTime
	// observes registry load latency (read + validate + materialize).
	snapshotLoads    *telemetry.Counter
	snapshotSaves    *telemetry.Counter
	snapshotLoadTime *telemetry.Histogram
}

func newMetrics(s *Server) *metrics {
	reg := telemetry.New()
	m := &metrics{
		reg: reg,
		requests: reg.Counter("smoqe_requests_total",
			"Query requests received.", nil),
		failures: reg.Counter("smoqe_failures_total",
			"Query requests that returned an error.", nil),
		visited: reg.Counter("smoqe_visited_elements_total",
			"Element nodes entered by HyPE evaluation runs.", nil),
		skippedSub: reg.Counter("smoqe_skipped_subtrees_total",
			"Subtrees pruned by HyPE evaluation runs.", nil),
		skippedEle: reg.Counter("smoqe_skipped_elements_total",
			"Element nodes inside pruned subtrees (index runs only).", nil),
		afaEvals: reg.Counter("smoqe_afa_evaluations_total",
			"Per-node AFA evaluations performed.", nil),
		slowQueries: reg.Counter("smoqe_slow_queries_total",
			"Query evaluations at or above the slow threshold (-trace-latency); GET /slow lists those with a retained trace.", nil),
		shed: reg.Counter("smoqe_shed_total",
			"Requests rejected by admission control (HTTP 429).", nil),
		cancelled: reg.Counter("smoqe_cancelled_total",
			"Evaluations aborted by context cancellation or timeout.", nil),
		parallelEvals: reg.Counter("smoqe_parallel_evaluations_total",
			"Evaluations that ran on the shard-parallel path.", nil),
		shards: reg.Counter("smoqe_shards_total",
			"Document shards evaluated by parallel runs.", nil),
		queueWait: reg.Histogram("smoqe_queue_wait_seconds",
			"Time requests spent waiting for an evaluation slot.",
			[]float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}, nil),
		breakerRejected: reg.Counter("smoqe_breaker_rejected_total",
			"Requests rejected by an open circuit breaker (HTTP 503).", nil),
		snapshotLoads: reg.Counter("smoqe_snapshot_loads_total",
			"Columnar document snapshots loaded into the registry.", nil),
		snapshotSaves: reg.Counter("smoqe_snapshot_saves_total",
			"Columnar document snapshots serialized and served.", nil),
		snapshotLoadTime: reg.Histogram("smoqe_snapshot_load_seconds",
			"Time to load one snapshot into the registry (read, validate, materialize).",
			[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}, nil),
	}
	// Counted once, where the fact lives: the plan cache counts its
	// lookups and the trace store its finished traces.
	reg.CounterFunc("smoqe_plan_cache_hits_total",
		"Plan-cache lookups answered by a cached plan.", nil,
		func() int64 { return s.cache.Stats().Hits })
	reg.CounterFunc("smoqe_plan_cache_misses_total",
		"Plan-cache lookups that built (or waited for) a plan.", nil,
		func() int64 { return s.cache.Stats().Misses })
	traceTotals := func() (retained, dropped, spans int64) {
		if st := s.Traces(); st != nil {
			return st.Totals()
		}
		return 0, 0, 0
	}
	reg.CounterFunc("smoqe_trace_spans_total",
		"Spans recorded on finished request traces.", nil,
		func() int64 { _, _, n := traceTotals(); return n })
	reg.CounterFunc("smoqe_trace_retained_total",
		"Finished traces kept by tail-based retention (forced, error, latency or sampled).", nil,
		func() int64 { n, _, _ := traceTotals(); return n })
	reg.CounterFunc("smoqe_trace_dropped_total",
		"Finished traces not kept by tail-based retention.", nil,
		func() int64 { _, n, _ := traceTotals(); return n })
	version := "(devel)"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	reg.Gauge("smoqe_build_info",
		"Build metadata: always 1, labeled with the module version and Go runtime version.",
		telemetry.Labels{"version": version, "go_version": runtime.Version()}).Set(1)
	reg.GaugeFunc("smoqe_uptime_seconds", "Seconds since the server started.", nil,
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("smoqe_documents", "Registered documents.", nil,
		func() float64 { return float64(len(s.reg.Documents())) })
	reg.GaugeFunc("smoqe_views", "Registered views.", nil,
		func() float64 { return float64(len(s.reg.Views())) })
	reg.GaugeFunc("smoqe_plan_cache_size", "Plans currently cached.", nil,
		func() float64 { return float64(s.cache.Stats().Size) })
	reg.GaugeFunc("smoqe_plan_cache_capacity", "Plan cache capacity.", nil,
		func() float64 { return float64(s.cache.Stats().Capacity) })
	reg.GaugeFunc("smoqe_plan_cache_evictions", "Plans evicted from the cache.", nil,
		func() float64 { return float64(s.cache.Stats().Evictions) })
	reg.GaugeFunc("smoqe_inflight_evaluations", "Evaluations currently holding an admission slot.", nil,
		func() float64 { return float64(len(s.sem)) })
	reg.GaugeFunc("smoqe_max_concurrent_evaluations", "Admission-control slot capacity (0 = unbounded).", nil,
		func() float64 { return float64(cap(s.sem)) })
	reg.GaugeFunc("smoqe_go_heap_live_bytes", "Heap bytes live after the last garbage collection.", nil,
		runtimeGauge("/gc/heap/live:bytes"))
	reg.GaugeFunc("smoqe_go_heap_goal_bytes", "Heap size the next garbage collection triggers at.", nil,
		runtimeGauge("/gc/heap/goal:bytes"))
	reg.GaugeFunc("smoqe_go_goroutines", "Live goroutines.", nil,
		runtimeGauge("/sched/goroutines:goroutines"))
	reg.CounterFunc("smoqe_go_alloc_bytes_total", "Heap bytes allocated since the process started.", nil,
		runtimeCounter("/gc/heap/allocs:bytes"))
	reg.CounterFunc("smoqe_go_gc_cycles_total", "Completed garbage-collection cycles.", nil,
		runtimeCounter("/gc/cycles/total:gc-cycles"))
	return m
}

// runtimeGauge reads one runtime/metrics sample per scrape (see
// readRuntimeMetric).
func runtimeGauge(name string) func() float64 {
	return func() float64 { return float64(readRuntimeMetric(name)) }
}

// runtimeCounter is runtimeGauge for a cumulative sample.
func runtimeCounter(name string) func() int64 {
	return func() int64 { return int64(readRuntimeMetric(name)) }
}

// readRuntimeMetric reads one uint64 runtime/metrics sample (0 when the
// runtime does not support it).
func readRuntimeMetric(name string) uint64 {
	sample := []rtmetrics.Sample{{Name: name}}
	rtmetrics.Read(sample)
	if sample[0].Value.Kind() != rtmetrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// observeQuery records one successful evaluation in the per-(view,engine)
// latency histogram. The empty view label means the query ran directly on
// the source document.
func (m *metrics) observeQuery(view string, engine EngineKind, elapsed time.Duration) {
	m.reg.Histogram("smoqe_query_duration_seconds",
		"Query evaluation wall time by view and engine.",
		nil, telemetry.Labels{"view": view, "engine": string(engine)},
	).Observe(elapsed.Seconds())
}

// panicked counts one recovered panic, labeled by recovery site ("eval",
// "hype.shard.worker", "server.planbuild", "http", ...).
func (m *metrics) panicked(site string) {
	m.panicsAll.Add(1)
	m.reg.Counter("smoqe_panics_total",
		"Panics recovered at evaluation and serving boundaries, by site.",
		telemetry.Labels{"site": site}).Inc()
}

// limitExceeded counts one request refused over a resource limit, labeled
// by cause: eval-visited-elements, eval-result-nodes (evaluation budgets),
// doc-depth, doc-nodes, doc-bytes (document parse limits).
func (m *metrics) limitExceeded(cause string) {
	m.limitsAll.Add(1)
	m.reg.Counter("smoqe_limit_exceeded_total",
		"Requests refused over an exceeded resource limit, by cause.",
		telemetry.Labels{"cause": cause}).Inc()
}

// corpusScanned is the corpus manager's OnScan hook: after every completed
// collection scan it publishes the collection's serving state as gauges
// and observes the scan (= incremental reindex pass) latency.
func (m *metrics) corpusScanned(info corpus.CollectionInfo, elapsed time.Duration) {
	labels := telemetry.Labels{"collection": info.Name}
	m.reg.Gauge("smoqe_corpus_generation",
		"Current manifest generation, by collection.", labels).
		Set(float64(info.Generation))
	m.reg.Gauge("smoqe_corpus_docs_indexed",
		"Documents indexed and serveable, by collection.", labels).
		Set(float64(info.Indexed))
	m.reg.Gauge("smoqe_corpus_docs_pending",
		"Documents awaiting (re)indexing or a retry on the next scan, by collection.", labels).
		Set(float64(info.Pending))
	m.reg.Gauge("smoqe_corpus_docs_quarantined",
		"Documents quarantined after failed validation, by collection.", labels).
		Set(float64(info.Quarantined))
	m.reg.Histogram("smoqe_corpus_reindex_seconds",
		"Time one collection scan (incremental reindex pass) took, by collection.",
		[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}, labels).
		Observe(elapsed.Seconds())
}

// corpusPrefilterSkipped counts documents a fan-out query skipped because
// their fingerprint refuted the query.
func (m *metrics) corpusPrefilterSkipped(collection string, n int) {
	if n < 0 {
		n = 0
	}
	m.reg.Counter("smoqe_corpus_skipped_prefilter_total",
		"Documents skipped by the fingerprint prefilter during fan-out queries, by collection.",
		telemetry.Labels{"collection": collection}).Add(int64(n))
}

// breakerTransition records one circuit-breaker state change: a transition
// counter plus a per-view state gauge (0 closed, 0.5 half-open, 1 open).
func (m *metrics) breakerTransition(view, state string) {
	m.reg.Counter("smoqe_breaker_transitions_total",
		"Circuit breaker state transitions, by view and new state.",
		telemetry.Labels{"view": view, "to": state}).Inc()
	v := 0.0
	switch state {
	case breakerOpen:
		v = 1
	case breakerHalfOpen:
		v = 0.5
	}
	m.reg.Gauge("smoqe_breaker_state",
		"Circuit breaker state by view (0 closed, 0.5 half-open, 1 open).",
		telemetry.Labels{"view": view}).Set(v)
}
