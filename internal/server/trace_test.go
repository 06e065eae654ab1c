package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"smoqe/internal/hospital"
	"smoqe/internal/trace"
)

// waitForTrace polls the store for a trace ID: the root span ends after the
// response body is flushed, so a client that just read the body may race
// the store submission by a few microseconds.
func waitForTrace(t *testing.T, s *Server, id string) *trace.Data {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if d, ok := s.Traces().Get(id); ok {
			return d
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never appeared in the store", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSampledRetentionPacedByTime: at the default config, sampled
// retention is paced by time, not by requests served. N cached /query
// requests through Handler() keep at most one sampled trace per elapsed
// second plus the first, whether N is 200 or 2,000.
func TestSampledRetentionPacedByTime(t *testing.T) {
	for _, n := range []int{200, 2000} {
		s := New(Config{})
		if _, err := s.Registry().RegisterDocument("hospital", hospital.SampleDocument()); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RegisterView("sigma0", hospital.Sigma0()); err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(QueryRequest{Doc: "hospital", View: "sigma0", Query: hospital.QExample11})
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		start := time.Now()
		for i := range n {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(string(body))))
			if rec.Code != http.StatusOK {
				t.Fatalf("request %d: %d %s", i, rec.Code, rec.Body)
			}
		}
		elapsed := time.Since(start)
		sampled := 0
		for _, d := range s.Traces().Snapshot() {
			if d.Retained == trace.RetainSampled {
				sampled++
			}
		}
		bound := int(math.Ceil(elapsed.Seconds())) + 1
		t.Logf("%d requests in %v: %d sampled traces", n, elapsed, sampled)
		if sampled == 0 || sampled > bound {
			t.Errorf("%d requests in %v kept %d sampled traces, want 1..%d", n, elapsed, sampled, bound)
		}
	}
}

// TestTracedQueryEndToEnd is the tracing acceptance test: a "trace": true
// request over HTTP yields a retained trace, fetchable from
// GET /traces/{id}, whose span tree covers admission, the plan-cache
// outcome, every shard worker, the merge and the root. The evaluation is
// one span, eval, with the shard planner, workers and merge as children.
func TestTracedQueryEndToEnd(t *testing.T) {
	withProcs(t, 2)
	s := newLoadedServer(t, Config{
		MaxConcurrentEvals:    4,
		TraceSampleEvery:      -1, // only forced retention keeps traces here...
		TraceLatencyRetention: -1, // ...even when -race makes every query slow
	}, 2000)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := QueryRequest{Doc: "gen", Query: "//diagnosis", Parallelism: 4, Trace: true}
	resp, body := postJSON(t, ts, "/query", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query: %d %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.TraceID == "" {
		t.Fatal(`"trace": true response carries no trace_id`)
	}
	if hdr := resp.Header.Get("X-Smoqe-Trace-Id"); hdr != qr.TraceID {
		t.Errorf("X-Smoqe-Trace-Id = %q, body trace_id = %q", hdr, qr.TraceID)
	}
	if tp := resp.Header.Get("traceparent"); !strings.Contains(tp, qr.TraceID) {
		t.Errorf("traceparent header %q does not carry trace ID %s", tp, qr.TraceID)
	}
	if qr.Shards < 2 {
		t.Fatalf("parallel request cut %d shards, want >= 2 for a useful span tree", qr.Shards)
	}

	d := waitForTrace(t, s, qr.TraceID)
	if d.Retained != trace.RetainForced {
		t.Errorf("retained = %q, want %q", d.Retained, trace.RetainForced)
	}
	if d.Status != "ok" {
		t.Errorf("status = %q, want ok", d.Status)
	}
	if d.Root != "http" {
		t.Errorf("root = %q, want http", d.Root)
	}

	// The span tree covers every serving layer, one shard span per worker.
	byName := map[string]int{}
	ids := map[string]trace.SpanData{}
	for _, sp := range d.Spans {
		byName[sp.Name]++
		ids[sp.ID] = sp
	}
	for _, want := range []string{"http", "registry", "plan", "plan.build", "admit", "eval", "hype.plan", "hype.merge"} {
		if byName[want] != 1 {
			t.Errorf("span %q appears %d times, want 1 (spans: %v)", want, byName[want], byName)
		}
	}
	if byName["hype.shard"] != qr.Workers {
		t.Errorf("%d hype.shard spans, want one per worker (%d)", byName["hype.shard"], qr.Workers)
	}
	tasks := int64(0)
	for _, sp := range d.Spans {
		if sp.Name == "hype.shard" {
			for _, a := range sp.Attrs {
				if a.Key == "tasks" {
					n, _ := strconv.ParseInt(a.Value, 10, 64)
					tasks += n
				}
			}
		}
	}
	if tasks != int64(qr.Shards) {
		t.Errorf("the hype.shard spans ran %d tasks, want every shard (%d)", tasks, qr.Shards)
	}
	for _, sp := range d.Spans {
		if strings.HasPrefix(sp.Name, "eval.") {
			t.Errorf("span %q: an evaluation is the one eval span", sp.Name)
		}
		if strings.HasPrefix(sp.Name, "hype.") && ids[sp.Parent].Name != "eval" {
			t.Errorf("span %s is a child of %q, want eval", sp.Name, ids[sp.Parent].Name)
		}
	}

	// Parent links form a tree rooted at the http span, and every child's
	// window nests inside the root's.
	var root trace.SpanData
	for _, sp := range d.Spans {
		if sp.Name == "http" {
			root = sp
		}
	}
	for _, sp := range d.Spans {
		if sp.ID == root.ID {
			continue
		}
		if _, ok := ids[sp.Parent]; !ok {
			t.Errorf("span %s (%s) has no parent in the trace", sp.Name, sp.ID)
		}
		if sp.StartMicros < root.StartMicros ||
			sp.StartMicros+sp.DurationMicros > root.StartMicros+root.DurationMicros+1 {
			t.Errorf("span %s [%d, +%d] escapes the root window [%d, +%d]",
				sp.Name, sp.StartMicros, sp.DurationMicros, root.StartMicros, root.DurationMicros)
		}
	}

	// First request built its plan; the trace says so.
	if !spanHasEvent(d, "plan", "cache-miss-built") {
		t.Error("plan span of the first request lacks a cache-miss-built event")
	}

	// A second identical request hits the cache — its own trace records the
	// hit, and the two IDs differ.
	resp2, body2 := postJSON(t, ts, "/query", req)
	var qr2 QueryResponse
	if err := json.Unmarshal(body2, &qr2); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK || qr2.TraceID == "" || qr2.TraceID == qr.TraceID {
		t.Fatalf("second traced request: status %d, trace_id %q (first %q)", resp2.StatusCode, qr2.TraceID, qr.TraceID)
	}
	d2 := waitForTrace(t, s, qr2.TraceID)
	if !spanHasEvent(d2, "plan", "cache-hit") {
		t.Error("plan span of the repeat request lacks a cache-hit event")
	}

	// Both traces show up in the GET /traces listing, newest first.
	var list TracesResponse
	getJSON(t, ts, "/traces", &list)
	if list.RetainedTotal < 2 || len(list.Traces) < 2 {
		t.Fatalf("GET /traces: retained=%d listed=%d, want >= 2", list.RetainedTotal, len(list.Traces))
	}
	if list.Traces[0].TraceID != qr2.TraceID {
		t.Errorf("newest listed trace = %s, want %s", list.Traces[0].TraceID, qr2.TraceID)
	}

	// And each is fetchable over HTTP by ID.
	var fetched trace.Data
	if resp := getJSON(t, ts, "/traces/"+qr.TraceID, &fetched); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /traces/{id}: %d", resp.StatusCode)
	}
	if fetched.TraceID != qr.TraceID || len(fetched.Spans) != len(d.Spans) {
		t.Errorf("fetched trace %s with %d spans, want %s with %d", fetched.TraceID, len(fetched.Spans), qr.TraceID, len(d.Spans))
	}
	if resp := getJSON(t, ts, "/traces/ffffffffffffffffffffffffffffffff", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /traces on unknown ID: %d, want 404", resp.StatusCode)
	}

	// An untraced request is dropped: sampling and latency retention are
	// both disabled, so the store keeps only the two forced traces.
	postJSON(t, ts, "/query", QueryRequest{Doc: "gen", Query: "//diagnosis"})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, dropped, _ := s.Traces().Totals(); dropped >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("untraced request was never accounted as dropped")
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.Traces().Len(); got != 2 {
		t.Errorf("store holds %d traces, want 2 (unforced request must not be retained)", got)
	}
}

func spanHasEvent(d *trace.Data, span, event string) bool {
	for _, sp := range d.Spans {
		if sp.Name != span {
			continue
		}
		for _, ev := range sp.Events {
			if ev.Name == event {
				return true
			}
		}
	}
	return false
}

// TestTraceRemoteParentPropagation: an incoming W3C traceparent header is
// adopted — the stored trace reuses the caller's trace ID and the root span
// links under the caller's span.
func TestTraceRemoteParentPropagation(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const remoteTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const remoteSpan = "00f067aa0ba902b7"
	raw := []byte(`{"doc":"hospital","query":"//diagnosis","trace":true}`)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/query", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+remoteTrace+"-"+remoteSpan+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query: %d %s", resp.StatusCode, body)
	}
	if hdr := resp.Header.Get("X-Smoqe-Trace-Id"); hdr != remoteTrace {
		t.Errorf("X-Smoqe-Trace-Id = %q, want adopted %q", hdr, remoteTrace)
	}
	d := waitForTrace(t, s, remoteTrace)
	for _, sp := range d.Spans {
		if sp.Name == "http" && sp.Parent != remoteSpan {
			t.Errorf("root span parent = %q, want remote caller's span %q", sp.Parent, remoteSpan)
		}
	}
}

// TestTracingDisabled: negative TraceStoreSize turns tracing off entirely —
// no store, no headers, 404 on the trace endpoints, and "trace": true
// requests still answer (with no trace ID to hand out).
func TestTracingDisabled(t *testing.T) {
	off := New(Config{TraceStoreSize: -1})
	if off.Traces() != nil {
		t.Fatal("disabled tracing still exposes a store")
	}
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	if _, err := off.Registry().RegisterDocument("hospital", hospital.SampleDocument()); err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, tsOff, "/query", QueryRequest{Doc: "hospital", Query: "//diagnosis", Trace: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query with tracing off: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Smoqe-Trace-Id") != "" {
		t.Error("X-Smoqe-Trace-Id set with tracing disabled")
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.TraceID != "" {
		t.Errorf("trace_id = %q with tracing disabled", qr.TraceID)
	}
	if resp := getJSON(t, tsOff, "/traces", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /traces with tracing off: %d, want 404", resp.StatusCode)
	}
}

// TestSlowLogLinksTrace: a slow query's /slow entry is its retained
// trace: the entry's trace_id is the request's, GET /traces/{id} serves
// it, latency retention kept it, and its root span carries the details.
func TestSlowLogLinksTrace(t *testing.T) {
	s := New(Config{TraceLatencyRetention: time.Nanosecond, TraceSampleEvery: -1})
	if _, err := s.Registry().RegisterDocument("hospital", hospital.SampleDocument()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts, "/query", QueryRequest{Doc: "hospital", Query: "//diagnosis"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query: %d %s", resp.StatusCode, body)
	}
	entries := waitForSlow(t, ts, 1).Entries
	if len(entries) != 1 || entries[0].TraceID != resp.Header.Get("X-Smoqe-Trace-Id") {
		t.Fatalf("slow entries %+v, want one with trace ID %s", entries, resp.Header.Get("X-Smoqe-Trace-Id"))
	}
	var d trace.Data
	if resp := getJSON(t, ts, "/traces/"+entries[0].TraceID, &d); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /traces/{id}: %d", resp.StatusCode)
	}
	if d.Retained != trace.RetainLatency {
		t.Errorf("slow query's trace retained = %q, want %q", d.Retained, trace.RetainLatency)
	}
	e, ok := slowEntry(&d)
	if e.Time.Equal(entries[0].Time) {
		e.Time = entries[0].Time
	}
	if !ok || e != entries[0] {
		t.Errorf("root span of the trace reads back as %+v (ok=%v), want %+v", e, ok, entries[0])
	}
}

// TestSharedTraceIDKeepsEveryRequest: two forced, slow requests that
// propagate one W3C trace ID from different caller spans are two entries
// in /traces and /slow, and GET /traces/{id} serves both requests' spans.
func TestSharedTraceIDKeepsEveryRequest(t *testing.T) {
	s := New(Config{TraceLatencyRetention: time.Nanosecond, TraceSampleEvery: -1})
	if _, err := s.Registry().RegisterDocument("hospital", hospital.SampleDocument()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const remoteTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	parents := []string{"00f067aa0ba902b7", "00f067aa0ba902b8"}
	for _, parent := range parents {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/query",
			strings.NewReader(`{"doc":"hospital","query":"//diagnosis","trace":true}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("traceparent", "00-"+remoteTrace+"-"+parent+"-01")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /query: %d", resp.StatusCode)
		}
	}

	slow := waitForSlow(t, ts, 2)
	if len(slow.Entries) != 2 || slow.Entries[0].TraceID != remoteTrace || slow.Entries[1].TraceID != remoteTrace {
		t.Errorf("/slow entries = %+v, want both requests under %s", slow.Entries, remoteTrace)
	}
	// The 1ns threshold also retains the GET /slow polls; count only the
	// two propagated requests.
	var list TracesResponse
	getJSON(t, ts, "/traces", &list)
	shared := 0
	for _, tr := range list.Traces {
		if tr.TraceID == remoteTrace {
			shared++
			if tr.Retained != trace.RetainForced {
				t.Errorf("listed trace %+v, want it retained forced", tr)
			}
		}
	}
	if shared != 2 {
		t.Fatalf("GET /traces lists %d entries for %s, want one per request (2)", shared, remoteTrace)
	}
	var d trace.Data
	getJSON(t, ts, "/traces/"+remoteTrace, &d)
	var roots []string
	for _, sp := range d.Spans {
		if sp.Name == "http" {
			roots = append(roots, sp.Parent)
		}
	}
	if fmt.Sprint(roots) != fmt.Sprint(parents) {
		t.Errorf("GET /traces/{id} has http roots under %v, want one per request under %v", roots, parents)
	}
}

// TestRetryAfterSecs: every Retry-After header the server emits goes
// through this helper, which renders whole seconds rounded up with a
// minimum of 1 (zero would mean "retry immediately").
func TestRetryAfterSecs(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{-5 * time.Second, "1"},
		{0, "1"},
		{time.Nanosecond, "1"},
		{100 * time.Millisecond, "1"},
		{999 * time.Millisecond, "1"},
		{time.Second, "1"},
		{time.Second + time.Millisecond, "2"},
		{1500 * time.Millisecond, "2"},
		{2 * time.Second, "2"},
		{90 * time.Second, "90"},
	} {
		if got := retryAfterSecs(tc.d); got != tc.want {
			t.Errorf("retryAfterSecs(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

// TestTraceMetricsRoundTrip: the smoqe_trace_* counters and the
// smoqe_build_info gauge survive the Prometheus exposition round trip.
func TestTraceMetricsRoundTrip(t *testing.T) {
	s := New(Config{TraceSampleEvery: -1, TraceLatencyRetention: -1})
	if _, err := s.Registry().RegisterDocument("hospital", hospital.SampleDocument()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One forced (retained) and one unremarkable (dropped) request.
	postJSON(t, ts, "/query", QueryRequest{Doc: "hospital", Query: "//diagnosis", Trace: true})
	postJSON(t, ts, "/query", QueryRequest{Doc: "hospital", Query: "//diagnosis"})

	// The counters move when each root span ends, which may trail the
	// response bodies; poll the scrape until both finished traces landed.
	var text string
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		text = string(raw)
		if strings.Contains(text, "smoqe_trace_retained_total 1") &&
			strings.Contains(text, "smoqe_trace_dropped_total 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace counters never settled:\n%s", text)
		}
		time.Sleep(time.Millisecond)
	}

	for _, want := range []string{
		"# TYPE smoqe_trace_spans_total counter",
		"# TYPE smoqe_trace_retained_total counter",
		"# TYPE smoqe_trace_dropped_total counter",
		"# TYPE smoqe_build_info gauge",
		fmt.Sprintf(`smoqe_build_info{go_version=%q,version=`, runtime.Version()),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in /metrics output:\n%s", want, text)
		}
	}
	// Build info is a constant 1; the span counter saw both requests' spans.
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "smoqe_build_info{") && !strings.HasSuffix(line, " 1") {
			t.Errorf("smoqe_build_info = %q, want value 1", line)
		}
		if strings.HasPrefix(line, "smoqe_trace_spans_total ") {
			var n int64
			if _, err := fmt.Sscanf(line, "smoqe_trace_spans_total %d", &n); err != nil || n < 2 {
				t.Errorf("smoqe_trace_spans_total = %q, want >= 2 spans across two requests", line)
			}
		}
	}

	// /healthz reports the same version fields the gauge is labeled with.
	var h HealthInfo
	getJSON(t, ts, "/healthz", &h)
	if h.GoVersion != runtime.Version() || h.Version == "" {
		t.Errorf("healthz version fields = %q/%q, want go_version %s and a non-empty version",
			h.GoVersion, h.Version, runtime.Version())
	}
}
