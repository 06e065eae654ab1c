package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"smoqe"
	"smoqe/internal/corpus"
	"smoqe/internal/failpoint"
	"smoqe/internal/guard"
	"smoqe/internal/trace"
)

// Handler returns the HTTP API of the server:
//
//	POST /query  {"doc","view","query","engine","paths","explain"} → QueryResponse
//	GET  /docs                                           → registered documents
//	POST /docs   {"name","xml"}                          → register a document
//	GET  /views                                          → registered views
//	POST /views  {"name","spec","source_dtd","target_dtd"} → register a view
//	GET  /snapshot?doc=NAME                              → binary columnar snapshot
//	POST /snapshot?name=NAME  (binary body)              → register from a snapshot
//	GET  /collections                                    → corpus collections
//	GET  /collections/{name}                             → one collection's documents
//	POST /collections/{name}/query  {"query","view","prefilter"} → streamed fan-out results
//	POST /collections/{name}/reindex                     → forced synchronous reindex
//	GET  /stats                                          → Stats
//	GET  /metrics                                        → Prometheus text format
//	GET  /slow                                           → slow queries with a retained trace
//	GET  /traces                                         → retained trace summaries
//	GET  /traces/{id}                                    → one trace's full span tree
//	GET  /healthz                                        → HealthInfo (build/version/uptime)
//	GET  /debug/pprof/...                                → profiles (Config.EnablePprof only)
//
// Bodies are JSON; errors come back as {"error": "..."} with a 4xx/5xx
// status. Every response carries the request's trace ID in
// X-Smoqe-Trace-Id (when tracing is enabled).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("GET /docs", s.handleListDocs)
	mux.HandleFunc("POST /docs", s.handleRegisterDoc)
	mux.HandleFunc("GET /views", s.handleListViews)
	mux.HandleFunc("POST /views", s.handleRegisterView)
	mux.HandleFunc("GET /snapshot", s.handleSnapshotGet)
	mux.HandleFunc("POST /snapshot", s.handleSnapshotPost)
	mux.HandleFunc("GET /collections", s.handleCollections)
	mux.HandleFunc("GET /collections/{name}", s.handleCollectionGet)
	mux.HandleFunc("POST /collections/{name}/query", s.handleCollectionQuery)
	mux.HandleFunc("POST /collections/{name}/reindex", s.handleCollectionReindex)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.Handle("GET /metrics", s.met.reg.Handler())
	mux.HandleFunc("GET /slow", s.handleSlow)
	mux.HandleFunc("GET /traces", s.handleTraces)
	mux.HandleFunc("GET /traces/{id}", s.handleTraceByID)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Health())
	})
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s.boundary(mux)
}

// boundary is the one HTTP middleware around the API, with two jobs. It
// owns the request's root span: it adopts an incoming W3C traceparent
// header, reflects the trace ID back on X-Smoqe-Trace-Id (and a
// traceparent for downstream hops), and records the method, path and
// final status; with tracing disabled the span is nil and records nothing.
// It is also the outermost panic boundary: whatever slipped past the
// per-evaluation recovery becomes a counted 500 with a JSON error instead
// of a killed connection (net/http would swallow the panic per connection,
// but without typing, counting or a JSON error). http.ErrAbortHandler, the
// sanctioned way to abort a response, is re-raised once the root span has
// recorded it as failed.
func (s *Server) boundary(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		remote, _ := trace.ParseTraceparent(r.Header.Get("traceparent"))
		ctx, sp := s.tracer.StartRoot(r.Context(), "http", remote)
		if sp != nil {
			sp.Attr("method", r.Method)
			sp.Attr("path", r.URL.Path)
			w.Header().Set("X-Smoqe-Trace-Id", sp.TraceID().String())
			w.Header().Set("traceparent",
				trace.Traceparent{TraceID: sp.TraceID(), SpanID: sp.ID(), Sampled: true}.String())
			r = r.WithContext(ctx)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			rec := recover()
			if rec != nil {
				sp.Event("panic")
				sp.Error(fmt.Errorf("panic: %v", rec))
				if rec != http.ErrAbortHandler {
					pe := guard.Recovered("http", rec)
					s.met.panicked(pe.Site)
					writeError(sw, http.StatusInternalServerError, pe)
				}
			}
			sp.AttrInt("status", int64(sw.status))
			if sw.status >= http.StatusInternalServerError {
				sp.Error(fmt.Errorf("http status %d", sw.status))
			}
			sp.End()
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// statusWriter captures the response status for the root span. Unwrap
// lets http.ResponseController reach the connection's writer through it,
// so a streamed response still flushes.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// SlowQuery is one GET /slow entry: enough context to re-run the request
// (doc, view, query, engine) plus what it cost.
type SlowQuery struct {
	// Time is when the request arrived (its trace's start).
	Time          time.Time  `json:"time"`
	Doc           string     `json:"doc"`
	View          string     `json:"view,omitempty"`
	Query         string     `json:"query"`
	Engine        EngineKind `json:"engine"`
	ElapsedMicros int64      `json:"elapsed_us"`
	Count         int        `json:"count"`
	Visited       int        `json:"visited_elements"`
	CacheHit      bool       `json:"cache_hit"`
	// TraceID links the entry to its request trace at GET /traces/{id}.
	TraceID string `json:"trace_id,omitempty"`
}

// slowResponse is the GET /slow payload.
type slowResponse struct {
	// ThresholdMicros is the slow threshold (Config.TraceLatencyRetention);
	// negative means slow queries are not recorded.
	ThresholdMicros int64 `json:"threshold_us"`
	// Total counts every slow query seen, including those whose trace the
	// store has since evicted and direct Go callers, which have no trace.
	Total int64 `json:"total"`
	// Entries lists the slow /query requests whose trace is still
	// retained, newest first; empty when tracing is disabled.
	Entries []SlowQuery `json:"entries"`
}

// handleSlow serves GET /slow as a view over the trace store: the retained
// request traces whose root span carries a slow query's details.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	out := slowResponse{ThresholdMicros: s.cfg.TraceLatencyRetention.Microseconds(), Entries: []SlowQuery{}}
	if store := s.Traces(); store != nil {
		for _, d := range store.Snapshot() {
			if e, ok := slowEntry(d); ok {
				out.Entries = append(out.Entries, e)
			}
		}
	}
	// Read after the snapshot: each listed query was counted before its
	// trace was stored, so total >= len(entries) even under concurrent
	// writers.
	out.Total = s.met.slowQueries.Value()
	writeJSON(w, http.StatusOK, out)
}

// markSlow copies a slow query's details onto its request's root span,
// from which GET /slow reads them back (see slowEntry). The root span ran
// longer than the evaluation, so latency retention keeps its trace. A nil
// span (a direct Go caller, or tracing disabled) records nothing.
func markSlow(root *trace.Span, req QueryRequest, resp *QueryResponse) {
	root.Attr("doc", req.Doc)
	if req.View != "" {
		root.Attr("view", req.View)
	}
	root.Attr("query", req.Query)
	root.Attr("engine", string(resp.Engine))
	root.AttrInt("elapsed_us", resp.ElapsedMicros)
	root.AttrInt("count", int64(resp.Count))
	root.AttrInt("visited_elements", int64(resp.Visited))
	root.Attr("cache_hit", strconv.FormatBool(resp.CacheHit))
}

// slowEntry reads back the details markSlow copied onto a retained
// request's root span; ok is false for a request that was not slow.
func slowEntry(d *trace.Data) (e SlowQuery, ok bool) {
	for _, sp := range d.Spans {
		if sp.Name != d.Root {
			continue
		}
		for _, a := range sp.Attrs {
			switch a.Key {
			case "doc":
				e.Doc = a.Value
			case "view":
				e.View = a.Value
			case "query":
				e.Query = a.Value
			case "engine":
				e.Engine = EngineKind(a.Value)
			case "elapsed_us":
				e.ElapsedMicros, _ = strconv.ParseInt(a.Value, 10, 64)
				ok = true
			case "count":
				e.Count, _ = strconv.Atoi(a.Value)
			case "visited_elements":
				e.Visited, _ = strconv.Atoi(a.Value)
			case "cache_hit":
				e.CacheHit = a.Value == "true"
			}
		}
	}
	e.Time, e.TraceID = d.Start, d.TraceID
	return e, ok
}

// TracesResponse is the GET /traces payload: lifetime retention counters
// plus a summary of every retained trace, newest first.
type TracesResponse struct {
	RetainedTotal int64          `json:"retained_total"`
	DroppedTotal  int64          `json:"dropped_total"`
	SpansTotal    int64          `json:"spans_total"`
	Traces        []TraceSummary `json:"traces"`
}

// TraceSummary is one retained trace without its spans.
type TraceSummary struct {
	TraceID        string    `json:"trace_id"`
	Root           string    `json:"root"`
	Start          time.Time `json:"start"`
	DurationMicros int64     `json:"duration_us"`
	Status         string    `json:"status"`
	Retained       string    `json:"retained"`
	Spans          int       `json:"spans"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	store := s.Traces()
	if store == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("server: tracing disabled"))
		return
	}
	retained, dropped, spans := store.Totals()
	all := store.Snapshot()
	out := TracesResponse{
		RetainedTotal: retained,
		DroppedTotal:  dropped,
		SpansTotal:    spans,
		Traces:        make([]TraceSummary, 0, len(all)),
	}
	for _, d := range all {
		out.Traces = append(out.Traces, TraceSummary{
			TraceID:        d.TraceID,
			Root:           d.Root,
			Start:          d.Start,
			DurationMicros: d.DurationMicros,
			Status:         d.Status,
			Retained:       d.Retained,
			Spans:          len(d.Spans),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	store := s.Traces()
	if store == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("server: tracing disabled"))
		return
	}
	id := r.PathValue("id")
	d, ok := store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("server: trace %q not retained", id))
		return
	}
	writeJSON(w, http.StatusOK, d)
}

// Serve runs the HTTP API on addr until ctx is canceled, then shuts down
// gracefully (in-flight requests get up to grace to finish; new
// connections are refused during the drain).
func (s *Server) Serve(ctx context.Context, addr string, grace time.Duration) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       posDur(s.cfg.ReadTimeout),
		WriteTimeout:      posDur(s.cfg.WriteTimeout),
		IdleTimeout:       posDur(s.cfg.IdleTimeout),
	}
	errc := make(chan error, 1)
	// Panic isolation: a panic out of the listener (a broken Accept, a
	// poisoned TLS config) must surface on errc as a *PanicError, not kill
	// the daemon bypassing the graceful-shutdown path below.
	go func() { errc <- guard.Protect("http.listen", srv.ListenAndServe) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// At this point ctx is already done — deriving the drain deadline from
	// it would cancel the drain immediately. The fresh root is deliberate.
	//lint:ignore ctxcheck shutdown must outlive the already-cancelled request ctx
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	return srv.Shutdown(shutdownCtx)
}

// posDur maps the config convention (negative = disabled) onto net/http's
// (zero = disabled).
func posDur(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

// retryAfterSecs renders a backoff hint as whole seconds, rounded up
// (Retry-After carries non-negative integers; zero would mean "retry
// immediately", so sub-second and non-positive hints clamp to one second).
// Every Retry-After header the server emits goes through this helper.
func retryAfterSecs(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// statusFor maps a failed request to its HTTP status — the error taxonomy
// of the serving stack (see docs/ROBUSTNESS.md):
//
//	429 overloaded (admission control)   503 circuit breaker open
//	504 timeout / client gone            422 evaluation budget exceeded
//	413 oversized document or body       500 panic or injected fault
//	404 unknown document/view            400 anything else (client error)
func statusFor(err error) int {
	var boe *BreakerOpenError
	var ele *smoqe.EvalLimitError
	var ple *smoqe.ParseLimitError
	var pe *guard.PanicError
	var fe *failpoint.Error
	var mbe *http.MaxBytesError
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.As(err, &boe):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.As(err, &ele):
		return http.StatusUnprocessableEntity
	case errors.As(err, &ple), errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge
	case errors.As(err, &pe), errors.As(err, &fe):
		return http.StatusInternalServerError
	case errors.Is(err, errNotRegistered), errors.Is(err, corpus.ErrUnknownCollection):
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// decodeBody decodes a JSON request body capped at Config.MaxBodyBytes.
// MaxBytesReader (unlike io.LimitReader) makes the cap an explicit 413 —
// a silently truncated body would surface as a baffling JSON syntax error
// — and closes the connection so the client stops uploading.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := r.Body
	if s.cfg.MaxBodyBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the %d-byte limit", mbe.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	resp, err := s.Query(r.Context(), req)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeQueryError answers a failed /query or collection fan-out with its
// status, plus the Retry-After hint of a shed request (one queue wait) or
// an open breaker (its remaining cooldown).
func (s *Server) writeQueryError(w http.ResponseWriter, err error) {
	status := statusFor(err)
	switch status {
	case http.StatusTooManyRequests:
		w.Header().Set("Retry-After", retryAfterSecs(s.cfg.QueueWait))
	case http.StatusServiceUnavailable:
		var boe *BreakerOpenError
		if errors.As(err, &boe) {
			w.Header().Set("Retry-After", retryAfterSecs(boe.RetryAfter))
		}
	}
	writeError(w, status, err)
}

// docInfo describes one registered document. MaxDepth is its element
// nesting with the root at 1, the figure -max-doc-depth bounds.
type docInfo struct {
	Name     string `json:"name"`
	Elements int    `json:"elements"`
	Texts    int    `json:"texts"`
	MaxDepth int    `json:"max_depth"`
}

func docInfoOf(e *DocEntry) docInfo {
	return docInfo{Name: e.Name, Elements: e.Stats.Elements, Texts: e.Stats.Texts, MaxDepth: e.depth}
}

func (s *Server) handleListDocs(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.Documents()
	out := make([]docInfo, 0, len(entries))
	for _, e := range entries {
		out = append(out, docInfoOf(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleRegisterDoc(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
		XML  string `json:"xml"`
	}
	if !s.decodeBody(w, r, &req) {
		return
	}
	entry, err := s.LoadDocument(r.Context(), req.Name, strings.NewReader(req.XML), false)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, docInfoOf(entry))
}

type viewInfo struct {
	Name      string `json:"name"`
	Recursive bool   `json:"recursive"`
	Size      int    `json:"size"`
}

func (s *Server) handleListViews(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.Views()
	out := make([]viewInfo, 0, len(entries))
	for _, e := range entries {
		out = append(out, viewInfo{Name: e.Name, Recursive: e.View.IsRecursive(), Size: e.View.Size()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleRegisterView(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name      string `json:"name"`
		Spec      string `json:"spec"`
		SourceDTD string `json:"source_dtd"`
		TargetDTD string `json:"target_dtd"`
	}
	if !s.decodeBody(w, r, &req) {
		return
	}
	entry, err := s.RegisterViewSpec(req.Name, req.Spec, req.SourceDTD, req.TargetDTD)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, viewInfo{
		Name:      entry.Name,
		Recursive: entry.View.IsRecursive(),
		Size:      entry.View.Size(),
	})
}

// handleSnapshotGet streams the named document's columnar snapshot — the
// export half of corpus distribution: one daemon serializes, replicas
// register the bytes via POST /snapshot (or load them from -snapshot-dir)
// without re-parsing any XML.
func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("doc")
	if name == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("snapshot: ?doc=NAME is required"))
		return
	}
	entry, ok := s.reg.Document(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("server: document %q %w", name, errNotRegistered))
		return
	}
	cd := entry.Col
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", name+smoqe.SnapshotFileExt))
	if err := smoqe.WriteSnapshot(cd, w); err != nil {
		// Headers are gone; all that is left is aborting the response so the
		// client sees a truncated body instead of a silently corrupt snapshot
		// (the checksum would catch it anyway).
		panic(http.ErrAbortHandler)
	}
	s.met.snapshotSaves.Inc()
}

// handleSnapshotPost registers a document from a binary snapshot body. The
// name comes from the query string because the body is the raw snapshot,
// not JSON.
func (s *Server) handleSnapshotPost(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("snapshot: ?name=NAME is required"))
		return
	}
	body := r.Body
	if s.cfg.MaxBodyBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	entry, err := s.LoadDocument(r.Context(), name, body, true)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("snapshot exceeds the %d-byte limit", mbe.Limit))
			return
		}
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, docInfoOf(entry))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
