package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smoqe/internal/hospital"
)

// TestConcurrentStatsExact is the telemetry acceptance test: many
// goroutines hammer ONE shared plan, and the per-response
// visited/skipped/AFA-eval numbers, summed, must equal the server
// aggregates exactly. Before per-run stats, the server diffed the plan's
// shared aggregate around each evaluation, so concurrent runs bled into
// each other's deltas; run with -race in CI.
func TestConcurrentStatsExact(t *testing.T) {
	s := newTestServer(t)
	const workers = 8
	const perWorker = 25
	req := QueryRequest{Doc: "hospital", View: "sigma0", Query: hospital.QExample11}

	var wg sync.WaitGroup
	var visited, skipped, skippedEle, afa atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r := req
				if w%2 == 1 {
					r.Engine = EngineOptHyPE
				}
				resp, err := s.Query(context.Background(), r)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Visited <= 0 {
					t.Errorf("per-response visited = %d, want > 0", resp.Visited)
					return
				}
				visited.Add(int64(resp.Visited))
				skipped.Add(int64(resp.Skipped))
				skippedEle.Add(int64(resp.SkippedElements))
				afa.Add(int64(resp.AFAEvals))
			}
		}(w)
	}
	wg.Wait()

	st := s.Stats()
	if st.Requests != workers*perWorker {
		t.Errorf("requests = %d, want %d", st.Requests, workers*perWorker)
	}
	if st.VisitedElements != visited.Load() {
		t.Errorf("aggregate visited %d != summed per-response %d", st.VisitedElements, visited.Load())
	}
	if st.SkippedSubtrees != skipped.Load() {
		t.Errorf("aggregate skipped %d != summed per-response %d", st.SkippedSubtrees, skipped.Load())
	}
	if st.SkippedElements != skippedEle.Load() {
		t.Errorf("aggregate skipped elements %d != summed per-response %d", st.SkippedElements, skippedEle.Load())
	}
	if st.AFAEvaluations != afa.Load() {
		t.Errorf("aggregate AFA evals %d != summed per-response %d", st.AFAEvaluations, afa.Load())
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJSON(t, ts, "/query", QueryRequest{Doc: "hospital", Query: "//diagnosis"})
	postJSON(t, ts, "/query", QueryRequest{Doc: "hospital", Query: "//diagnosis"}) // cache hit
	postJSON(t, ts, "/query", QueryRequest{Doc: "hospital", View: "sigma0",
		Query: hospital.QExample11, Engine: EngineOptHyPE})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain exposition", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, want := range []string{
		"# TYPE smoqe_requests_total counter",
		"smoqe_requests_total 3",
		"smoqe_plan_cache_hits_total 1",
		"smoqe_plan_cache_misses_total 2",
		"# TYPE smoqe_query_duration_seconds histogram",
		`smoqe_query_duration_seconds_bucket{engine="hype",view="",le="+Inf"} 2`,
		`smoqe_query_duration_seconds_count{engine="opthype",view="sigma0"} 1`,
		"# TYPE smoqe_visited_elements_total counter",
		"smoqe_afa_evaluations_total",
		"smoqe_skipped_subtrees_total",
		"smoqe_uptime_seconds",
		"smoqe_documents 1",
		"smoqe_views 1",
		"smoqe_plan_cache_size 2",
		"# TYPE smoqe_go_heap_live_bytes gauge",
		"# TYPE smoqe_go_heap_goal_bytes gauge",
		"# TYPE smoqe_go_goroutines gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in /metrics output:\n%s", want, text)
		}
	}
	// The runtime gauges read real values: a serving process has a heap
	// goal and goroutines.
	for _, name := range []string{"smoqe_go_heap_goal_bytes", "smoqe_go_goroutines"} {
		if strings.Contains(text, "\n"+name+" 0\n") || !strings.Contains(text, "\n"+name+" ") {
			t.Errorf("%s missing or zero in /metrics output", name)
		}
	}
	// Visited counter must be a positive cumulative number.
	if strings.Contains(text, "smoqe_visited_elements_total 0\n") {
		t.Error("visited counter stayed 0 after three queries")
	}
}

// TestMetricsRuntimeCounters: the allocation and GC-cycle counters are
// exported as counters and grow after the process allocates and
// collects.
func TestMetricsRuntimeCounters(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	names := []string{"smoqe_go_alloc_bytes_total", "smoqe_go_gc_cycles_total"}
	scrape := func() map[string]int64 {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		text := string(raw)
		vals := make(map[string]int64)
		for _, name := range names {
			if !strings.Contains(text, "# TYPE "+name+" counter\n") {
				t.Fatalf("%s is not exported as a counter:\n%s", name, text)
			}
			i := strings.Index(text, "\n"+name+" ")
			if i < 0 {
				t.Fatalf("%s has no sample", name)
			}
			line, _, _ := strings.Cut(text[i+len(name)+2:], "\n")
			v, err := strconv.ParseInt(line, 10, 64)
			if err != nil {
				t.Fatalf("%s %q: %v", name, line, err)
			}
			vals[name] = v
		}
		return vals
	}
	before := scrape()
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	runtime.KeepAlive(sink)
	runtime.GC()
	after := scrape()
	if after["smoqe_go_alloc_bytes_total"]-before["smoqe_go_alloc_bytes_total"] < 64*64<<10 {
		t.Errorf("alloc bytes grew %d → %d after allocating 4 MiB", before["smoqe_go_alloc_bytes_total"], after["smoqe_go_alloc_bytes_total"])
	}
	if after["smoqe_go_gc_cycles_total"] <= before["smoqe_go_gc_cycles_total"] {
		t.Errorf("GC cycles %d → %d after runtime.GC", before["smoqe_go_gc_cycles_total"], after["smoqe_go_gc_cycles_total"])
	}
}

// TestSlowLogRecordsAndServes: with a 1ns threshold every /query is
// slow. GET /slow lists each HTTP request, newest first, with every field
// taken from its response and its trace ID; total counts them, and a
// direct Server.Query call counts without an entry (it has no trace).
func TestSlowLogRecordsAndServes(t *testing.T) {
	s := New(Config{TraceLatencyRetention: time.Nanosecond, TraceSampleEvery: -1})
	if _, err := s.Registry().RegisterDocument("hospital", hospital.SampleDocument()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterView("sigma0", hospital.Sigma0()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reqs := []QueryRequest{
		{Doc: "hospital", Query: "//diagnosis"},
		{Doc: "hospital", View: "sigma0", Query: hospital.QExample11, Engine: EngineOptHyPE},
		{Doc: "hospital", Query: "//diagnosis", Engine: EngineColumnar},
	}
	var resps []QueryResponse
	var traceIDs []string
	for _, req := range reqs {
		resp, body := postJSON(t, ts, "/query", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /query: %d %s", resp.StatusCode, body)
		}
		var qr QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		resps = append(resps, qr)
		traceIDs = append(traceIDs, resp.Header.Get("X-Smoqe-Trace-Id"))
	}
	out := waitForSlow(t, ts, len(reqs))
	if out.ThresholdMicros != 0 || out.Total != int64(len(reqs)) || len(out.Entries) != len(reqs) {
		t.Fatalf("GET /slow: threshold_us=%d total=%d entries=%d, want 0, %d, %d",
			out.ThresholdMicros, out.Total, len(out.Entries), len(reqs), len(reqs))
	}
	for i, e := range out.Entries {
		j := len(reqs) - 1 - i // newest first
		req, qr := reqs[j], resps[j]
		want := SlowQuery{
			Time: e.Time, Doc: req.Doc, View: req.View, Query: req.Query, Engine: qr.Engine,
			ElapsedMicros: qr.ElapsedMicros, Count: qr.Count, Visited: qr.Visited,
			CacheHit: qr.CacheHit, TraceID: traceIDs[j],
		}
		if e != want {
			t.Errorf("entry %d = %+v, want %+v", i, e, want)
		}
		if e.Time.IsZero() || time.Since(e.Time) > time.Minute {
			t.Errorf("entry %d time = %v", i, e.Time)
		}
	}
	if !out.Entries[0].CacheHit || out.Entries[2].CacheHit {
		t.Errorf("cache_hit flags = %v, %v; want the repeated query to hit", out.Entries[0].CacheHit, out.Entries[2].CacheHit)
	}

	if _, err := s.Query(context.Background(), QueryRequest{Doc: "hospital", Query: "//pname"}); err != nil {
		t.Fatal(err)
	}
	var after slowResponse
	getJSON(t, ts, "/slow", &after)
	if after.Total != int64(len(reqs))+1 || len(after.Entries) != len(reqs) {
		t.Errorf("after a Go call: total=%d entries=%d, want %d and %d", after.Total, len(after.Entries), len(reqs)+1, len(reqs))
	}
	if st := s.Stats(); st.SlowQueries != after.Total {
		t.Errorf("stats slow queries = %d, /slow total = %d", st.SlowQueries, after.Total)
	}
}

// TestLatencyLabeledByEngineThatRan: an explain request for the columnar
// engine runs on the columnar engine, and its response says so. The
// latency histogram and GET /slow record that engine. A collection
// fan-out runs the columnar pass, and its latency is recorded as such.
func TestLatencyLabeledByEngineThatRan(t *testing.T) {
	s := New(Config{TraceLatencyRetention: time.Nanosecond})
	if _, err := s.Registry().RegisterDocument("hospital", hospital.SampleDocument()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts, "/query", QueryRequest{
		Doc: "hospital", Query: "//diagnosis", Engine: EngineColumnar, Explain: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query: %d %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Engine != EngineColumnar {
		t.Fatalf("explain columnar request reports engine %q", qr.Engine)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	text := string(raw)
	if want := `smoqe_query_duration_seconds_count{engine="columnar",view=""} 1`; !strings.Contains(text, want) {
		t.Errorf("missing %q in /metrics output:\n%s", want, text)
	}
	if strings.Contains(text, `smoqe_query_duration_seconds_count{engine="hype"`) {
		t.Errorf("latency recorded under an engine that did not run:\n%s", text)
	}

	slow := waitForSlow(t, ts, 1)
	if len(slow.Entries) != 1 || slow.Entries[0].Engine != EngineColumnar {
		t.Errorf("/slow entries = %+v, want one entry with engine columnar", slow.Entries)
	}

	_, cts := newCorpusServer(t, Config{})
	if resp, body := postJSON(t, cts, "/collections/ward/query", CollectionQueryRequest{Query: "b"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /collections/ward/query: %d %s", resp.StatusCode, body)
	}
	cresp, err := http.Get(cts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	craw, _ := io.ReadAll(cresp.Body)
	ctext := string(craw)
	if want := `smoqe_query_duration_seconds_count{engine="columnar",view=""} 1`; !strings.Contains(ctext, want) {
		t.Errorf("collection query: missing %q in /metrics output:\n%s", want, ctext)
	}
	if strings.Contains(ctext, `smoqe_query_duration_seconds_count{engine="hype"`) {
		t.Errorf("collection query latency recorded under engine hype:\n%s", ctext)
	}
}

// TestSlowLogDisabled: a negative threshold disables slow queries; GET
// /slow reports the negative threshold, a zero total and no entries, even
// with every trace retained.
func TestSlowLogDisabled(t *testing.T) {
	s := New(Config{TraceLatencyRetention: -time.Millisecond, TraceSampleEvery: time.Nanosecond})
	if _, err := s.Registry().RegisterDocument("hospital", hospital.SampleDocument()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts, "/query", QueryRequest{Doc: "hospital", Query: "//diagnosis"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query: %d %s", resp.StatusCode, body)
	}
	waitForTrace(t, s, resp.Header.Get("X-Smoqe-Trace-Id"))
	var out slowResponse
	getJSON(t, ts, "/slow", &out)
	if out.ThresholdMicros >= 0 || out.Total != 0 || len(out.Entries) != 0 {
		t.Errorf("disabled /slow = %+v, want a negative threshold, total 0 and no entries", out)
	}
	if st := s.Stats(); st.SlowQueries != 0 {
		t.Errorf("stats slow queries = %d with the threshold disabled", st.SlowQueries)
	}
}

// metricValue reads one unlabeled series from a Prometheus text scrape.
func metricValue(t *testing.T, text, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s = %q: %v", name, v, err)
			}
			return n
		}
	}
	t.Fatalf("%s missing from scrape:\n%s", name, text)
	return 0
}

// TestCountsAgreeAcrossEndpoints: each fact has one count, so after one
// unparsable query and a few traced ones /stats, /traces and /metrics
// report the same plan-cache and trace totals. The handlers are called
// directly so that reading them creates no traces of its own.
func TestCountsAgreeAcrossEndpoints(t *testing.T) {
	s := New(Config{TraceSampleEvery: -1, TraceLatencyRetention: -1})
	if _, err := s.Registry().RegisterDocument("hospital", hospital.SampleDocument()); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	post := func(req QueryRequest) {
		raw, _ := json.Marshal(req)
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(string(raw))))
	}
	post(QueryRequest{Doc: "hospital", Query: "//[bad"})
	const traced = 3
	for i := 0; i < traced; i++ {
		post(QueryRequest{Doc: "hospital", Query: "//diagnosis", Trace: true})
	}

	var traces TracesResponse
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec := httptest.NewRecorder()
		s.handleTraces(rec, httptest.NewRequest(http.MethodGet, "/traces", nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &traces); err != nil {
			t.Fatal(err)
		}
		if traces.RetainedTotal == traced+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retained_total = %d, want %d (forced + failed)", traces.RetainedTotal, traced+1)
		}
		time.Sleep(time.Millisecond)
	}
	var scrape strings.Builder
	if err := s.Telemetry().WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	text := scrape.String()
	st := s.Stats()
	for _, c := range []struct {
		name       string
		got, other int64
	}{
		{"smoqe_plan_cache_hits_total", metricValue(t, text, "smoqe_plan_cache_hits_total"), st.Cache.Hits},
		{"smoqe_plan_cache_misses_total", metricValue(t, text, "smoqe_plan_cache_misses_total"), st.Cache.Misses},
		{"smoqe_trace_retained_total", metricValue(t, text, "smoqe_trace_retained_total"), traces.RetainedTotal},
		{"smoqe_trace_dropped_total", metricValue(t, text, "smoqe_trace_dropped_total"), traces.DroppedTotal},
		{"smoqe_trace_spans_total", metricValue(t, text, "smoqe_trace_spans_total"), traces.SpansTotal},
		{"smoqe_requests_total", metricValue(t, text, "smoqe_requests_total"), st.Requests},
	} {
		if c.got != c.other {
			t.Errorf("%s = %d in /metrics, %d in /stats or /traces", c.name, c.got, c.other)
		}
	}
	if st.Cache.Misses != 2 || st.Cache.Hits != traced-1 || st.Requests != traced+1 {
		t.Errorf("stats = %+v, want 2 misses (the bad query and the first build), %d hits, %d requests", st.Cache, traced-1, traced+1)
	}
}

func TestHealthzJSON(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var h HealthInfo
	resp := getJSON(t, ts, "/healthz", &h)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q, want ok", h.Status)
	}
	if h.Module != "smoqe" {
		t.Errorf("module = %q, want smoqe", h.Module)
	}
	if !strings.HasPrefix(h.GoVersion, "go") {
		t.Errorf("go version = %q", h.GoVersion)
	}
	if h.UptimeSeconds < 0 || h.Started.IsZero() {
		t.Errorf("bad uptime/start: %+v", h)
	}
}

func TestPprofGatedByConfig(t *testing.T) {
	off := httptest.NewServer(New(Config{}).Handler())
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof reachable without EnablePprof")
	}

	on := httptest.NewServer(New(Config{EnablePprof: true}).Handler())
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with EnablePprof: status %d, want 200", resp.StatusCode)
	}
}

func TestQueryExplain(t *testing.T) {
	s := newTestServer(t)
	resp, err := s.Query(context.Background(), QueryRequest{
		Doc: "hospital", View: "sigma0", Query: hospital.QExample11, Explain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := resp.Explain
	if ex == nil {
		t.Fatal("explain requested but response carries none")
	}
	if ex.Plan.QuerySize <= 0 || ex.Plan.ViewSize <= 0 || ex.Plan.ViewDTDTypes <= 0 {
		t.Errorf("plan factors not filled: %+v", ex.Plan)
	}
	if ex.Plan.Bound != ex.Plan.QuerySize*ex.Plan.ViewSize*ex.Plan.ViewDTDTypes {
		t.Errorf("bound %d != |Q||σ||D_V| = %d", ex.Plan.Bound,
			ex.Plan.QuerySize*ex.Plan.ViewSize*ex.Plan.ViewDTDTypes)
	}
	if ex.Plan.MFASize <= 0 || ex.Plan.NFAStates <= 0 {
		t.Errorf("MFA sizes not filled: %+v", ex.Plan)
	}
	if ex.Trace == nil || len(ex.Trace.Events) == 0 {
		t.Fatal("explain response carries no trace")
	}
	if ex.Trace.Events[0].Path == "" {
		t.Errorf("trace event missing path: %+v", ex.Trace.Events[0])
	}
	if ex.Timings.Rewrite <= 0 {
		t.Errorf("rewrite timing not recorded: %+v", ex.Timings)
	}

	// A plain request must not pay for a trace.
	plain, err := s.Query(context.Background(), QueryRequest{
		Doc: "hospital", View: "sigma0", Query: hospital.QExample11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Explain != nil {
		t.Error("unrequested explain payload present")
	}
	if plain.Count != resp.Count {
		t.Errorf("explain changed answers: %d vs %d", resp.Count, plain.Count)
	}

	// Trace cap from config is honored.
	capped := New(Config{TraceLimit: 2})
	if _, err := capped.Registry().RegisterDocument("hospital", hospital.SampleDocument()); err != nil {
		t.Fatal(err)
	}
	r2, err := capped.Query(context.Background(), QueryRequest{Doc: "hospital", Query: "//diagnosis", Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r2.Explain.Trace.Events); got != 2 {
		t.Errorf("capped trace has %d events, want 2", got)
	}
	if r2.Explain.Trace.Dropped == 0 {
		t.Error("capped trace reports no drops")
	}
}
