package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
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

func TestSlowLogRecordsAndServes(t *testing.T) {
	// Threshold 1ns: every query qualifies as slow.
	s := New(Config{SlowQueryThreshold: time.Nanosecond, SlowLogSize: 2})
	if _, err := s.Registry().RegisterDocument("hospital", hospital.SampleDocument()); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"//diagnosis", "//pname", "//street"} {
		if _, err := s.Query(context.Background(), QueryRequest{Doc: "hospital", Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.SlowLog().Total(); got != 3 {
		t.Errorf("slow total = %d, want 3", got)
	}
	entries := s.SlowLog().Snapshot()
	if len(entries) != 2 {
		t.Fatalf("ring retained %d entries, want capacity 2", len(entries))
	}
	// Newest first; the oldest ("//diagnosis") was overwritten.
	if entries[0].Query != "//street" || entries[1].Query != "//pname" {
		t.Errorf("snapshot order = [%s, %s], want [//street, //pname]", entries[0].Query, entries[1].Query)
	}
	if st := s.Stats(); st.SlowQueries != 3 {
		t.Errorf("stats slow queries = %d, want 3", st.SlowQueries)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var out slowResponse
	getJSON(t, ts, "/slow", &out)
	if out.Total != 3 || len(out.Entries) != 2 {
		t.Errorf("GET /slow: total=%d entries=%d, want 3 and 2", out.Total, len(out.Entries))
	}
	if out.Entries[0].ElapsedMicros < 0 || out.Entries[0].Doc != "hospital" {
		t.Errorf("slow entry malformed: %+v", out.Entries[0])
	}
}

// TestLatencyLabeledByEngineThatRan: an explain request for the columnar
// engine runs on the columnar engine, and its response says so. The
// latency histogram and the slow log record that engine. A collection
// fan-out runs the columnar pass, and its latency is recorded as such.
func TestLatencyLabeledByEngineThatRan(t *testing.T) {
	s := New(Config{SlowQueryThreshold: time.Nanosecond})
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

	var slow slowResponse
	getJSON(t, ts, "/slow", &slow)
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

func TestSlowLogDisabled(t *testing.T) {
	l := NewSlowLog(4, -1)
	if l.Record(SlowQuery{ElapsedMicros: 1 << 40}) {
		t.Error("disabled log recorded an entry")
	}
	if len(l.Snapshot()) != 0 || l.Total() != 0 {
		t.Error("disabled log retained entries")
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
