package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"smoqe"
	"smoqe/internal/corpus"
	"smoqe/internal/guard"
	"smoqe/internal/hype"
	"smoqe/internal/trace"
)

// OpenCorpus attaches a corpus of collections (one subdirectory of dir
// each) to the server: durable state is recovered, every document is
// validated (quarantined when corrupt) and indexed synchronously, and the
// collection endpoints start answering. Call StartCorpus afterwards for
// background re-indexing.
func (s *Server) OpenCorpus(ctx context.Context, dir string) error {
	mgr, err := corpus.Open(ctx, dir, corpus.Options{
		ScanInterval: s.cfg.CorpusScanInterval,
		ParseLimits:  s.cfg.ParseLimits,
		Logf:         s.cfg.CorpusLogf,
		OnScan:       s.met.corpusScanned,
	})
	if err != nil {
		return err
	}
	s.corpus = mgr
	return nil
}

// StartCorpus launches the corpus's background incremental indexer; it
// stops when ctx is cancelled (CloseCorpus drains it).
func (s *Server) StartCorpus(ctx context.Context) {
	if s.corpus != nil {
		s.corpus.Start(ctx)
	}
}

// CloseCorpus stops the background indexer and waits for it to drain.
func (s *Server) CloseCorpus() {
	if s.corpus != nil {
		s.corpus.Close()
	}
}

// Corpus exposes the attached corpus manager (nil when no corpus is open).
func (s *Server) Corpus() *corpus.Manager { return s.corpus }

var errCorpusDisabled = errors.New("server: no corpus configured (start with -corpus-dir)")

// CollectionQueryRequest asks for one evaluation fanned over a collection.
type CollectionQueryRequest struct {
	// Query is the regular XPath query text.
	Query string `json:"query"`
	// View optionally names a registered view to rewrite through.
	View string `json:"view,omitempty"`
	// Prefilter controls the fingerprint prefilter (default on). Off is a
	// crosscheck/debug mode: every indexed document is evaluated. The
	// "results" array is byte-identical either way — the prefilter only
	// skips documents that provably contain no answer.
	Prefilter *bool `json:"prefilter,omitempty"`
}

// collectionDocResult is one document's streamed result entry. Documents
// with no answers are omitted, so the results array does not depend on
// which documents the prefilter managed to skip.
type collectionDocResult struct {
	Doc   string `json:"doc"`
	Count int    `json:"count"`
	IDs   []int  `json:"ids"`
}

// handleCollections lists the corpus's collections.
func (s *Server) handleCollections(w http.ResponseWriter, r *http.Request) {
	if s.corpus == nil {
		writeError(w, http.StatusNotFound, errCorpusDisabled)
		return
	}
	writeJSON(w, http.StatusOK, s.corpus.Infos())
}

// CollectionDetail is the GET /collections/{name} payload: the summary
// plus every document's status (quarantine reasons included).
type CollectionDetail struct {
	corpus.CollectionInfo
	Docs []CollectionDoc `json:"docs"`
}

// CollectionDoc is one document's entry in a CollectionDetail.
type CollectionDoc struct {
	Name     string        `json:"name"`
	Status   corpus.Status `json:"status"`
	Reason   string        `json:"reason,omitempty"`
	Retries  int           `json:"retries,omitempty"`
	Elements int           `json:"elements,omitempty"`
}

func (s *Server) handleCollectionGet(w http.ResponseWriter, r *http.Request) {
	if s.corpus == nil {
		writeError(w, http.StatusNotFound, errCorpusDisabled)
		return
	}
	name := r.PathValue("name")
	c, ok := s.corpus.Collection(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("server: collection %q %w", name, errNotRegistered))
		return
	}
	detail := CollectionDetail{CollectionInfo: s.corpus.Info(c)}
	for _, d := range c.Docs() {
		detail.Docs = append(detail.Docs, CollectionDoc{
			Name:     d.Name,
			Status:   d.Status,
			Reason:   d.Reason,
			Retries:  d.Retries,
			Elements: d.Fingerprint.Elements,
		})
	}
	writeJSON(w, http.StatusOK, detail)
}

// handleCollectionReindex runs a synchronous forced reindex. A scan
// already in flight answers 503 with a Retry-After hint (the manager's
// scan interval), through the same helper every other Retry-After goes
// through.
func (s *Server) handleCollectionReindex(w http.ResponseWriter, r *http.Request) {
	if s.corpus == nil {
		writeError(w, http.StatusNotFound, errCorpusDisabled)
		return
	}
	name := r.PathValue("name")
	info, err := s.corpus.Reindex(r.Context(), name)
	if err != nil {
		if errors.Is(err, corpus.ErrReindexInProgress) {
			w.Header().Set("Retry-After", retryAfterSecs(s.corpus.ScanInterval()))
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleCollectionQuery fans one query over a collection's indexed
// documents and streams per-document results in name order. The response
// head (generation, staleness, quarantine counts) is written before the
// first evaluation finishes; a fan-out failure after that terminates the
// "results" array and reports the failure in a trailing "error" member —
// the status line is long gone, but the JSON stays well formed and the
// partial results stay usable. A failure before the head answers with its
// status, as a failed /query does.
func (s *Server) handleCollectionQuery(w http.ResponseWriter, r *http.Request) {
	if s.corpus == nil {
		writeError(w, http.StatusNotFound, errCorpusDisabled)
		return
	}
	name := r.PathValue("name")
	var req CollectionQueryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	s.met.requests.Inc()
	out := &collectionStream{w: w, rc: http.NewResponseController(w)}
	if err := s.collectionQuery(r.Context(), out, name, req); err != nil {
		s.failed(r.Context(), err)
		if out.streaming {
			out.finishError(err)
		} else {
			s.writeQueryError(w, err)
		}
	}
}

// collectionBreakerPrefix namespaces collection breakers away from view
// breakers in the one breaker group, health and metric labels. It is
// reserved: RegisterView refuses a view name that begins with it.
const collectionBreakerPrefix = "collection/"

// collectionQuery is the fan-out path: one guarded request under the
// collection's breaker and admission semaphore, whose run streams each
// evaluated document's answers to out.
func (s *Server) collectionQuery(ctx context.Context, out *collectionStream, name string, req CollectionQueryRequest) error {
	ctx, sp := trace.Start(ctx, "corpus.query")
	defer sp.End()
	sp.Attr("collection", name)
	if req.Query == "" {
		return fmt.Errorf("server: empty query")
	}
	c, ok := s.corpus.Collection(name)
	if !ok {
		return fmt.Errorf("server: collection %q %w", name, errNotRegistered)
	}
	var view *ViewEntry
	if req.View != "" {
		if view, ok = s.reg.View(req.View); !ok {
			return fmt.Errorf("server: view %q %w", req.View, errNotRegistered)
		}
	}
	return s.guarded(ctx, collectionBreakerPrefix+name, view, req.Query, s.collectionSem(name), func(ctx context.Context, plan *smoqe.PreparedQuery, _ bool) error {
		info := s.corpus.Info(c)
		docs := c.Docs(corpus.StatusIndexed)

		// Prefilter: refute whole documents from their fingerprints and label
		// tables alone. A refuted document provably has no answers, so
		// skipping it cannot change the results array. A record recovered
		// from a manifest stays indexed without a document until a scan
		// re-reads its file; it is not evaluated either way.
		usePrefilter := req.Prefilter == nil || *req.Prefilter
		var evalDocs []*corpus.Doc
		for _, d := range docs {
			if d.Col != nil && (!usePrefilter || hype.CanMatch(plan.MFA(), d.Col, d.Fingerprint)) {
				evalDocs = append(evalDocs, d)
			}
		}
		s.met.corpusPrefilterSkipped(name, len(docs)-len(evalDocs))
		sp.AttrInt("docs_indexed", int64(len(docs)))
		sp.AttrInt("docs_evaluated", int64(len(evalDocs)))

		// Everything that can fail with a status code has; start the body.
		out.head(name, info, len(docs)-len(evalDocs))
		start := time.Now()
		total := 0
		results := s.fanOut(ctx, plan, evalDocs)
		for i := range evalDocs {
			res := <-results[i]
			if res.err != nil {
				if ctx.Err() != nil && errors.Is(res.err, ctx.Err()) {
					s.met.cancelled.Inc()
					sp.Event("cancelled")
				}
				return fmt.Errorf("server: query on collection %q, doc %q: %w", name, evalDocs[i].Name, res.err)
			}
			if len(res.ids) == 0 {
				continue
			}
			total += len(res.ids)
			if werr := out.result(collectionDocResult{Doc: evalDocs[i].Name, Count: len(res.ids), IDs: res.ids}); werr != nil {
				// The client is gone; there is nothing left to stream to.
				return nil
			}
		}
		out.finish(total)
		s.met.observeQuery(req.View, EngineColumnar, time.Since(start))
		return nil
	})
}

// docEval is one document's fan-out outcome.
type docEval struct {
	ids []int
	err error
}

// fanOut evaluates the documents on a worker pool of GOMAXPROCS workers,
// at most 8 and never more than the documents, each over its columnar
// form, and returns one single-use buffered channel per document, so the
// caller can stream results in document-name order while later documents
// are still evaluating. Every channel receives exactly one value. Workers
// share the immutable documents; each evaluation binds its own.
func (s *Server) fanOut(ctx context.Context, plan *smoqe.PreparedQuery, docs []*corpus.Doc) []chan docEval {
	results := make([]chan docEval, len(docs))
	for i := range results {
		results[i] = make(chan docEval, 1)
	}
	workers := min(runtime.GOMAXPROCS(0), 8, len(docs))
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		go func() {
			for i := range idx {
				// Panic isolation per document: a poisoned evaluation
				// surfaces as that document's error, not a killed daemon or
				// a reader blocked on an unfilled channel. The document's
				// span ends before its result is handed over, so it is
				// recorded before the request's root span can end.
				var ids []int
				err := guard.Protect("corpus.eval", func() error {
					dctx, dsp := trace.Start(ctx, "corpus.eval.doc")
					defer dsp.End()
					dsp.Attr("doc", docs[i].Name)
					res, err := plan.Eval(dctx, nil, smoqe.EvalOptions{Columnar: docs[i].Col, Limits: s.cfg.EvalLimits})
					dsp.Error(err)
					ids = res.IDs
					return err
				})
				results[i] <- docEval{ids: ids, err: err}
			}
		}()
	}
	go func() {
		var ferr error
		defer guard.Recover("corpus.feed", &ferr)
		defer close(idx)
		for i := range docs {
			select {
			case idx <- i:
			case <-ctx.Done():
				// Fail the not-yet-dispatched documents so the in-order
				// reader never blocks on them; already-dispatched ones are
				// settled by their workers (Eval honors ctx).
				for j := i; j < len(docs); j++ {
					results[j] <- docEval{err: ctx.Err()}
				}
				return
			}
		}
	}()
	return results
}

// collectionSem returns the collection's admission semaphore, created on
// first use, or nil when fan-outs are unbounded.
func (s *Server) collectionSem(name string) chan struct{} {
	if s.cfg.CorpusMaxConcurrentQueries <= 0 {
		return nil
	}
	s.corpusSemMu.Lock()
	defer s.corpusSemMu.Unlock()
	sem, ok := s.corpusSems[name]
	if !ok {
		sem = make(chan struct{}, s.cfg.CorpusMaxConcurrentQueries)
		s.corpusSems[name] = sem
	}
	return sem
}

// collectionStream writes the response body incrementally: a head with
// the collection's serving state, a streamed results array, then totals
// (or a trailing error). Field order is fixed so responses are
// byte-comparable across runs — the crash-recovery crosscheck depends on
// that. It flushes through rc, which reaches the connection under the
// root span's status writer.
type collectionStream struct {
	w  http.ResponseWriter
	rc *http.ResponseController
	// streaming is set once the head is written: the 200 status line is
	// committed, so a failure can only go in the body.
	streaming bool
	nres      int
}

// head writes the response head and opens the results array.
func (cs *collectionStream) head(name string, info corpus.CollectionInfo, skipped int) {
	cs.streaming = true
	cs.w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(cs.w, "{\"collection\":%s,\"generation\":%d,\"stale\":%t,\"degraded\":%t,"+
		"\"docs_indexed\":%d,\"docs_pending\":%d,\"docs_quarantined\":%d,\"docs_skipped_prefilter\":%d,\"results\":[",
		jsonString(name), info.Generation, info.Stale, info.Degraded(),
		info.Indexed, info.Pending, info.Quarantined, skipped)
}

func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		return `""`
	}
	return string(b)
}

// result appends one document's entry and flushes, so clients see
// per-document progress on long fan-outs.
func (cs *collectionStream) result(r collectionDocResult) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if cs.nres > 0 {
		if _, err := cs.w.Write([]byte(",")); err != nil {
			return err
		}
	}
	cs.nres++
	if _, err := cs.w.Write(b); err != nil {
		return err
	}
	_ = cs.rc.Flush() // a writer that cannot flush still gets the whole body
	return nil
}

// finish closes the results array and writes the totals.
func (cs *collectionStream) finish(total int) {
	fmt.Fprintf(cs.w, "],\"count\":%d}\n", total)
	_ = cs.rc.Flush()
}

// finishError closes the results array and reports the fan-out failure in
// the body (the 200 status line was already committed).
func (cs *collectionStream) finishError(err error) {
	fmt.Fprintf(cs.w, "],\"error\":%s}\n", jsonString(err.Error()))
	_ = cs.rc.Flush()
}

// corpusHealth assembles the per-collection health map and reports whether
// any collection degrades the server (quarantined documents or a stale
// index keep serving their last good generation, but visibly so).
func (s *Server) corpusHealth() (map[string]corpus.CollectionInfo, bool) {
	if s.corpus == nil {
		return nil, false
	}
	degraded := false
	out := make(map[string]corpus.CollectionInfo)
	for _, info := range s.corpus.Infos() {
		out[info.Name] = info
		degraded = degraded || info.Degraded()
	}
	return out, degraded
}
