package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smoqe"
	"smoqe/internal/failpoint"
	"smoqe/internal/trace"
)

// newCorpusServer builds a corpus directory with one collection ("ward":
// three good documents, one unparsable one) and a server with it open.
func newCorpusServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	col := filepath.Join(dir, "ward")
	if err := os.Mkdir(col, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, xml := range map[string]string{
		"a.xml":   `<a><b>one</b></a>`,
		"b.xml":   `<a><b>two</b><b>three</b></a>`,
		"c.xml":   `<a><c>other</c></a>`,
		"bad.xml": `<a><unclosed`,
	} {
		if err := os.WriteFile(filepath.Join(col, name), []byte(xml), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := New(cfg)
	if err := s.OpenCorpus(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.CloseCorpus)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// resultsSuffix returns the body from `"results":` on — the part of a
// collection query response that must not depend on the prefilter (or, in
// the chaos crosscheck, on crash history).
func resultsSuffix(t *testing.T, body []byte) string {
	t.Helper()
	i := bytes.Index(body, []byte(`"results":`))
	if i < 0 {
		t.Fatalf("response has no results array: %s", body)
	}
	return string(body[i:])
}

func TestCollectionEndpoints(t *testing.T) {
	_, ts := newCorpusServer(t, Config{})

	var infos []struct {
		Name        string `json:"name"`
		Generation  uint64 `json:"generation"`
		Indexed     int    `json:"indexed"`
		Quarantined int    `json:"quarantined"`
	}
	getJSON(t, ts, "/collections", &infos)
	if len(infos) != 1 || infos[0].Name != "ward" || infos[0].Indexed != 3 || infos[0].Quarantined != 1 {
		t.Fatalf("GET /collections = %+v", infos)
	}

	var detail struct {
		Docs []CollectionDoc `json:"docs"`
	}
	getJSON(t, ts, "/collections/ward", &detail)
	if len(detail.Docs) != 4 {
		t.Fatalf("GET /collections/ward docs = %+v", detail.Docs)
	}
	byName := map[string]CollectionDoc{}
	for _, d := range detail.Docs {
		byName[d.Name] = d
	}
	if byName["a.xml"].Status != "indexed" || byName["a.xml"].Elements != 2 {
		t.Errorf("a.xml = %+v", byName["a.xml"])
	}
	if byName["bad.xml"].Status != "quarantined" || byName["bad.xml"].Reason == "" {
		t.Errorf("bad.xml = %+v", byName["bad.xml"])
	}

	// The fan-out finds b elements in a.xml and b.xml; c.xml has no b label
	// at all, so the prefilter refutes it from its fingerprint.
	resp, body := postJSON(t, ts, "/collections/ward/query", map[string]any{"query": "b"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST query: %d %s", resp.StatusCode, body)
	}
	var qr struct {
		Degraded bool `json:"degraded"`
		Skipped  int  `json:"docs_skipped_prefilter"`
		Results  []struct {
			Doc   string `json:"doc"`
			Count int    `json:"count"`
		} `json:"results"`
		Count int `json:"count"`
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	if qr.Count != 3 || len(qr.Results) != 2 || qr.Skipped != 1 || !qr.Degraded {
		t.Fatalf("query response = %+v (%s)", qr, body)
	}
	if qr.Results[0].Doc != "a.xml" || qr.Results[0].Count != 1 ||
		qr.Results[1].Doc != "b.xml" || qr.Results[1].Count != 2 {
		t.Fatalf("results out of document order: %+v", qr.Results)
	}

	// Prefilter off is the crosscheck mode: every indexed document is
	// evaluated, and from "results" on the body is byte-identical.
	resp, crosscheck := postJSON(t, ts, "/collections/ward/query",
		map[string]any{"query": "b", "prefilter": false})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST query (no prefilter): %d %s", resp.StatusCode, crosscheck)
	}
	if got, want := resultsSuffix(t, crosscheck), resultsSuffix(t, body); got != want {
		t.Fatalf("prefilter changed the answers:\n  on:  %s\n  off: %s", want, got)
	}

	// Error taxonomy before the stream starts.
	if resp, _ := postJSON(t, ts, "/collections/nowhere/query", map[string]any{"query": "b"}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("query on unknown collection: %d, want 404", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts, "/collections/ward/query", map[string]any{"query": ""}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty query: %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts, "/collections/nowhere/reindex", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("reindex of unknown collection: %d, want 404", resp.StatusCode)
	}

	// The quarantined document degrades health, with corpus counts visible.
	// Each /healthz corpus entry is the collection's CollectionInfo.
	var h HealthInfo
	getJSON(t, ts, "/healthz", &h)
	if w := h.Corpus["ward"]; h.Status != "degraded" || w.Name != "ward" || w.LastScan.IsZero() ||
		w.Quarantined != 1 || w.Indexed != 3 || !w.Degraded() {
		t.Fatalf("healthz = %+v", h)
	}
	var raw struct {
		Corpus map[string]map[string]any `json:"corpus"`
	}
	getJSON(t, ts, "/healthz", &raw)
	for _, key := range []string{"name", "generation", "indexed", "pending", "quarantined", "stale", "last_scan"} {
		if _, ok := raw.Corpus["ward"][key]; !ok {
			t.Errorf("/healthz corpus entry lacks %q: %v", key, raw.Corpus["ward"])
		}
	}
}

// TestTracedFanOutOneSpanPerDocument: a fan-out's trace holds one
// corpus.eval.doc span per evaluated document, naming it, and no eval.*
// span under it: the document span is that evaluation's only span.
func TestTracedFanOutOneSpanPerDocument(t *testing.T) {
	s, ts := newCorpusServer(t, Config{TraceLatencyRetention: time.Nanosecond, TraceSampleEvery: -1})
	for _, prefilter := range []bool{true, false} {
		resp, body := postJSON(t, ts, "/collections/ward/query", map[string]any{"query": "b", "prefilter": prefilter})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST query: %d %s", resp.StatusCode, body)
		}
		var qr struct {
			Indexed int `json:"docs_indexed"`
			Skipped int `json:"docs_skipped_prefilter"`
		}
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatalf("decoding %s: %v", body, err)
		}
		d := waitForTrace(t, s, resp.Header.Get("X-Smoqe-Trace-Id"))
		evalDocs := map[string]bool{}
		docSpans := map[string]bool{}
		for _, sp := range d.Spans {
			if sp.Name == "corpus.eval.doc" {
				docSpans[sp.ID] = true
				for _, a := range sp.Attrs {
					if a.Key == "doc" {
						evalDocs[a.Value] = true
					}
				}
			}
			if strings.HasPrefix(sp.Name, "eval") {
				t.Errorf("prefilter %v: fan-out trace has a %q span", prefilter, sp.Name)
			}
		}
		if want := qr.Indexed - qr.Skipped; len(docSpans) != want || len(evalDocs) != want {
			t.Errorf("prefilter %v: %d corpus.eval.doc spans over %d documents, want one per evaluated document (%d)",
				prefilter, len(docSpans), len(evalDocs), want)
		}
		for _, sp := range d.Spans {
			if docSpans[sp.Parent] {
				t.Errorf("prefilter %v: corpus.eval.doc has a child span %q", prefilter, sp.Name)
			}
		}
	}
}

// TestCollectionReindexRetryAfter drives the reindex-in-progress 503,
// table-driven over scan intervals: the Retry-After hint must come from the
// shared retryAfterSecs helper applied to the configured interval.
func TestCollectionReindexRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		name     string
		interval time.Duration
		want     string // retryAfterSecs(interval or the 2s default)
	}{
		{"default-interval", 0, "2"},
		{"sub-second-rounds-up", 1500 * time.Millisecond, "2"},
		{"five-seconds", 5 * time.Second, "5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newCorpusServer(t, Config{CorpusScanInterval: tc.interval})
			// Slow down per-document indexing so the first reindex is still
			// running when the second request lands.
			if err := failpoint.Enable(failpoint.SiteCorpusIndexDoc, "sleep:500ms"); err != nil {
				t.Fatal(err)
			}
			defer failpoint.DisableAll()
			first := make(chan int, 1)
			go func() {
				resp, err := http.Post(ts.URL+"/collections/ward/reindex", "application/json", nil)
				if err != nil {
					first <- 0
					return
				}
				resp.Body.Close()
				first <- resp.StatusCode
			}()
			// The slowed scan holds the collection for ~2s (4 documents ×
			// 500ms); by 300ms in, the first reindex is guaranteed mid-scan.
			time.Sleep(300 * time.Millisecond)
			resp, err := http.Post(ts.URL+"/collections/ward/reindex", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("concurrent reindex: %d, want 503", resp.StatusCode)
			}
			if got := resp.Header.Get("Retry-After"); got != tc.want {
				t.Fatalf("Retry-After = %q, want %q", got, tc.want)
			}
			if code := <-first; code != http.StatusOK {
				t.Fatalf("first reindex finished with %d, want 200", code)
			}
		})
	}
}

// TestCollectionFanOutSheds: a fan-out that finds its collection's slots
// busy past the queue wait is shed like a /query: 429 with Retry-After,
// counted in smoqe_shed_total, and the collection's breaker is untouched.
func TestCollectionFanOutSheds(t *testing.T) {
	s, ts := newCorpusServer(t, Config{CorpusMaxConcurrentQueries: 1, QueueWait: 20 * time.Millisecond})
	sem := s.collectionSem("ward")
	sem <- struct{}{} // occupy the only slot
	resp, body := postJSON(t, ts, "/collections/ward/query", CollectionQueryRequest{Query: "b"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed fan-out: %d %s, want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(raw), "\nsmoqe_shed_total 1\n") {
		t.Errorf("smoqe_shed_total is not 1 after one shed fan-out:\n%s", raw)
	}
	if st := s.Health().Breakers["collection/ward"]; st != "" && st != breakerClosed {
		t.Errorf("shed load moved the collection breaker to %q", st)
	}

	<-sem
	if resp, body := postJSON(t, ts, "/collections/ward/query", CollectionQueryRequest{Query: "b"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("fan-out after release: %d %s", resp.StatusCode, body)
	}
	if got := len(sem); got != 0 {
		t.Errorf("slot leaked: %d in flight after completion", got)
	}
}

// TestCollectionBreakerSharesGroup: a collection's breaker lives in the
// server's one breaker group under "collection/<name>": server faults on
// fan-outs open it, /healthz lists it next to the view breakers, and the
// rejection names the collection.
func TestCollectionBreakerSharesGroup(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	s, ts := newCorpusServer(t, Config{BreakerThreshold: 2})
	if err := failpoint.Enable(failpoint.SiteServerPlanBuild, "error"); err != nil {
		t.Fatal(err)
	}
	// Failed builds are never cached, so each fan-out builds and faults.
	for _, q := range []string{"b", "c"} {
		if resp, body := postJSON(t, ts, "/collections/ward/query", CollectionQueryRequest{Query: q}); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("faulted fan-out: %d %s, want 500", resp.StatusCode, body)
		}
	}
	failpoint.DisableAll()
	h := s.Health()
	if h.Breakers["collection/ward"] != breakerOpen || len(h.Breakers) != 1 || h.Status != "degraded" {
		t.Fatalf("health after faults: breakers %v, status %q", h.Breakers, h.Status)
	}
	resp, body := postJSON(t, ts, "/collections/ward/query", CollectionQueryRequest{Query: "b"})
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("fan-out on an open breaker: %d %s, want 503 with Retry-After", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `circuit breaker open for collection \"ward\"`) {
		t.Errorf("rejection does not name the collection: %s", body)
	}
}

// TestCollectionFanOutKeepsBudgets: the server's evaluation budgets bind
// every document of a collection fan-out. A document larger than
// MaxVisited ends the stream with the limit error and is counted under its
// cause. The failure is recorded as a /query's is, on the request's root
// span (error and limit-exceeded event), not on corpus.query, though the
// head had streamed; the fan-out's admission span is "admit".
func TestCollectionFanOutKeepsBudgets(t *testing.T) {
	dir := t.TempDir()
	col := filepath.Join(dir, "ward")
	if err := os.Mkdir(col, 0o755); err != nil {
		t.Fatal(err)
	}
	big := "<a>" + strings.Repeat("<b>x</b>", 600) + "</a>"
	if err := os.WriteFile(filepath.Join(col, "big.xml"), []byte(big), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Config{EvalLimits: smoqe.EvalLimits{MaxVisited: 100}})
	if err := s.OpenCorpus(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.CloseCorpus)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, body := postJSON(t, ts, "/collections/ward/query", map[string]any{"query": "b"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST query: %d %s", resp.StatusCode, body)
	}
	var qr struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	if !strings.Contains(qr.Error, "visited-elements") {
		t.Fatalf("stream did not end with the visited-elements limit error: %s", body)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	if want := `smoqe_limit_exceeded_total{cause="eval-visited-elements"} 1`; !strings.Contains(string(raw), want) {
		t.Errorf("missing %q in /metrics output:\n%s", want, raw)
	}

	d := waitForTrace(t, s, resp.Header.Get("X-Smoqe-Trace-Id"))
	spans := map[string]trace.SpanData{}
	for _, sp := range d.Spans {
		spans[sp.Name] = sp
	}
	root, cq, admit := spans["http"], spans["corpus.query"], spans["admit"]
	if !strings.Contains(root.Error, "visited-elements") || cq.Error != "" {
		t.Errorf("root span error %q, corpus.query error %q; want the limit error on the root alone", root.Error, cq.Error)
	}
	if admit.ID == "" || admit.Parent != cq.ID {
		t.Errorf("admit span %+v, want one under corpus.query", admit)
	}
	if !spanHasEvent(d, "http", "limit-exceeded") || spanHasEvent(d, "corpus.query", "limit-exceeded") {
		t.Error("the limit-exceeded event is not on the root span alone")
	}
}

// flushCounter is a response recorder that counts flushes.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

// TestCollectionStreamFlushesPerDocument: through Handler() at the default
// config, tracing on, a fan-out flushes at least once per streamed
// document, so clients see per-document progress through the root span's
// status writer.
func TestCollectionStreamFlushesPerDocument(t *testing.T) {
	s, _ := newCorpusServer(t, Config{})
	req := httptest.NewRequest(http.MethodPost, "/collections/ward/query", strings.NewReader(`{"query":"b"}`))
	rec := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	s.Handler().ServeHTTP(rec, req)
	var qr struct {
		Results []collectionDocResult `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("fan-out: %d %s (%v)", rec.Code, rec.Body, err)
	}
	if len(qr.Results) == 0 || rec.flushes < len(qr.Results) {
		t.Errorf("%d flushes for %d streamed documents, want at least one each", rec.flushes, len(qr.Results))
	}
}

// TestCollectionFanOutTimeoutCancelled: a fan-out stopped by the request
// timeout is counted once in smoqe_cancelled_total and /stats "cancelled",
// as a /query stopped by it is, and its corpus.query span records a
// cancelled event.
func TestCollectionFanOutTimeoutCancelled(t *testing.T) {
	dir := t.TempDir()
	col := filepath.Join(dir, "ward")
	if err := os.Mkdir(col, 0o755); err != nil {
		t.Fatal(err)
	}
	big := "<a>" + strings.Repeat("<b/>", 200000) + "</a>"
	if err := os.WriteFile(filepath.Join(col, "big.xml"), []byte(big), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Config{RequestTimeout: time.Microsecond})
	if err := s.OpenCorpus(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.CloseCorpus)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, body := postJSON(t, ts, "/collections/ward/query", map[string]any{"query": "b"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST query: %d %s", resp.StatusCode, body)
	}
	var qr struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	if !strings.Contains(qr.Error, context.DeadlineExceeded.Error()) {
		t.Fatalf("stream did not end with the deadline error: %s", body)
	}
	if st := s.Stats(); st.Failures != 1 || st.Cancelled != 1 {
		t.Errorf("failures %d, cancelled %d; want 1 and 1", st.Failures, st.Cancelled)
	}
	d := waitForTrace(t, s, resp.Header.Get("X-Smoqe-Trace-Id"))
	if !spanHasEvent(d, "corpus.query", "cancelled") {
		t.Error("corpus.query span lacks a cancelled event")
	}
}
