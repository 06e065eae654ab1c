package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"smoqe"
	"smoqe/internal/datagen"
	"smoqe/internal/failpoint"
	"smoqe/internal/guard"
	"smoqe/internal/hospital"
)

// TestShardPanicReturns500AndServerSurvives: a panic inside a parallel
// shard worker must surface as a typed 500-class error and increment the
// panic counter — and the server must keep answering afterwards.
func TestShardPanicReturns500AndServerSurvives(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	s := New(Config{CacheSize: 32, MaxParallelism: 4})
	doc := datagen.Generate(datagen.DefaultConfig(120))
	if _, err := s.Registry().RegisterDocument("big", doc); err != nil {
		t.Fatal(err)
	}
	req := QueryRequest{Doc: "big", Query: "//diagnosis", Parallelism: 2}
	clean, err := s.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	if err := failpoint.Enable(failpoint.SiteHypeShardWorker, "panic"); err != nil {
		t.Fatal(err)
	}
	_, err = s.Query(context.Background(), req)
	var pe *guard.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *guard.PanicError", err)
	}
	if got := statusFor(err); got != http.StatusInternalServerError {
		t.Errorf("statusFor = %d, want 500", got)
	}
	if st := s.Stats(); st.Panics == 0 {
		t.Error("Stats().Panics = 0 after recovered panic")
	}

	failpoint.DisableAll()
	// The breaker may have recorded one fault, but a single panic is below
	// the default threshold: the same query must succeed again.
	resp, err := s.Query(context.Background(), req)
	if err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	if resp.Count != clean.Count {
		t.Errorf("count after recovery = %d, want %d", resp.Count, clean.Count)
	}
}

// TestEvalBudgetReturns422: a query exceeding the configured evaluation
// budget gets a structured 422 error plus a limit metric.
func TestEvalBudgetReturns422(t *testing.T) {
	s := New(Config{CacheSize: 32, EvalLimits: smoqe.EvalLimits{MaxVisited: 256}})
	doc := datagen.Generate(datagen.DefaultConfig(500))
	if _, err := s.Registry().RegisterDocument("big", doc); err != nil {
		t.Fatal(err)
	}
	_, err := s.Query(context.Background(), QueryRequest{Doc: "big", Query: "//diagnosis"})
	var le *smoqe.EvalLimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *EvalLimitError", err)
	}
	if got := statusFor(err); got != http.StatusUnprocessableEntity {
		t.Errorf("statusFor = %d, want 422", got)
	}
	if st := s.Stats(); st.LimitExceeded == 0 {
		t.Error("Stats().LimitExceeded = 0 after budget violation")
	}
	// Budget violations are the client's problem, not a server fault: the
	// breaker must stay closed no matter how many land.
	for i := 0; i < 10; i++ {
		_, _ = s.Query(context.Background(), QueryRequest{Doc: "big", Query: "//diagnosis"})
	}
	if h := s.Health(); h.Breakers[""] != "" && h.Breakers[""] != breakerClosed {
		t.Errorf("breaker %q after client errors, want closed", h.Breakers[""])
	}
}

// TestParseLimitsRefuseOversizedDocument: documents beyond the configured
// parse limits are refused at registration with a structured 413.
func TestParseLimitsRefuseOversizedDocument(t *testing.T) {
	s := New(Config{CacheSize: 32, ParseLimits: smoqe.ParseLimits{MaxNodes: 10}})
	_, err := s.LoadDocument(context.Background(), "big", strings.NewReader(hospital.SampleXML), false)
	var ple *smoqe.ParseLimitError
	if !errors.As(err, &ple) {
		t.Fatalf("err = %v, want *ParseLimitError", err)
	}
	if got := statusFor(err); got != http.StatusRequestEntityTooLarge {
		t.Errorf("statusFor = %d, want 413", got)
	}
	// Small documents still register.
	if _, err := s.LoadDocument(context.Background(), "tiny", strings.NewReader("<r><a>x</a></r>"), false); err != nil {
		t.Fatalf("tiny document refused: %v", err)
	}
}

// TestDocRegistrationOverHTTPReturns413 covers the handler path: the
// structured parse-limit error must reach the client as a 413 and bump the
// limit metric.
func TestDocRegistrationOverHTTPReturns413(t *testing.T) {
	s := New(Config{CacheSize: 32, ParseLimits: smoqe.ParseLimits{MaxDepth: 2}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]string{"name": "deep", "xml": "<a><b><c>x</c></b></a>"})
	resp, err := http.Post(ts.URL+"/docs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, body %s, want 413", resp.StatusCode, raw)
	}
	if st := s.Stats(); st.LimitExceeded == 0 {
		t.Error("Stats().LimitExceeded = 0 after oversized registration")
	}
}

// TestSnapshotParseLimits: POST /snapshot holds a snapshot to the depth
// and node bounds POST /docs holds the same document's XML to. At a bound
// both accept; one over it both refuse with 413, counted by cause. In the
// depth cases the deepest node is a text node, which element nesting does
// not count.
func TestSnapshotParseLimits(t *testing.T) {
	nest := func(n int) string { return strings.Repeat("<a>", n) + "x" + strings.Repeat("</a>", n) }
	s := New(Config{CacheSize: 32, ParseLimits: smoqe.ParseLimits{MaxDepth: 5, MaxNodes: 8}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func(path, ctype string, body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, ctype, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}
	refused := map[string]int{}
	for i, tc := range []struct {
		xml   string
		cause string // "" when the document fits the limits
	}{
		{nest(5), ""},          // five elements, the text one level deeper
		{nest(6), "doc-depth"}, // seven nodes: only the depth is over
		{"<r><a>x</a><a>x</a><a>x</a><b/></r>", ""},
		{"<r><a>x</a><a>x</a><a>x</a><b/><c/></r>", "doc-nodes"},
	} {
		doc, err := smoqe.ParseDocumentString(tc.xml)
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := smoqe.WriteSnapshot(smoqe.BuildColumnar(doc), &snap); err != nil {
			t.Fatal(err)
		}
		want := http.StatusCreated
		if tc.cause != "" {
			want = http.StatusRequestEntityTooLarge
			refused[tc.cause] += 2
		}
		body, _ := json.Marshal(map[string]string{"name": fmt.Sprintf("xml%d", i), "xml": tc.xml})
		if got, raw := post("/docs", "application/json", body); got != want {
			t.Errorf("POST /docs %s: status %d (%s), want %d", tc.xml, got, raw, want)
		}
		if got, raw := post(fmt.Sprintf("/snapshot?name=snap%d", i), "application/octet-stream", snap.Bytes()); got != want {
			t.Errorf("POST /snapshot of %s: status %d (%s), want %d", tc.xml, got, raw, want)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for cause, n := range refused {
		if line := fmt.Sprintf(`smoqe_limit_exceeded_total{cause=%q} %d`, cause, n); !strings.Contains(string(raw), line) {
			t.Errorf("/metrics lacks %s", line)
		}
	}
}

// TestDocsMaxDepthMatchesLimit: the max_depth POST /docs, POST /snapshot
// and GET /docs report is element nesting with the root at 1, the figure
// ParseLimits.MaxDepth bounds. Five nested elements report 5 with or
// without a text node inside, and both fit MaxDepth 5; six are refused.
func TestDocsMaxDepthMatchesLimit(t *testing.T) {
	s := New(Config{ParseLimits: smoqe.ParseLimits{MaxDepth: 5}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	check := func(what string, resp *http.Response, err error, status int) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info docInfo
		json.NewDecoder(resp.Body).Decode(&info)
		if resp.StatusCode != status {
			t.Errorf("%s: status %d, want %d", what, resp.StatusCode, status)
		} else if status == http.StatusCreated && info.MaxDepth != 5 {
			t.Errorf("%s: max_depth %d, want 5", what, info.MaxDepth)
		}
	}
	nest := func(n int, text string) string {
		return strings.Repeat("<a>", n) + text + strings.Repeat("</a>", n)
	}
	for i, tc := range []struct {
		xml    string
		status int
	}{
		{nest(5, "x"), http.StatusCreated},
		{nest(5, ""), http.StatusCreated},
		{nest(6, ""), http.StatusRequestEntityTooLarge},
	} {
		doc, err := smoqe.ParseDocumentString(tc.xml)
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := smoqe.WriteSnapshot(smoqe.BuildColumnar(doc), &snap); err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(map[string]string{"name": fmt.Sprintf("xml%d", i), "xml": tc.xml})
		resp, err := http.Post(ts.URL+"/docs", "application/json", bytes.NewReader(body))
		check("POST /docs "+tc.xml, resp, err, tc.status)
		resp, err = http.Post(fmt.Sprintf("%s/snapshot?name=snap%d", ts.URL, i), "application/octet-stream", &snap)
		check("POST /snapshot "+tc.xml, resp, err, tc.status)
	}
	var listed []docInfo
	getJSON(t, ts, "/docs", &listed)
	if len(listed) != 4 {
		t.Fatalf("GET /docs lists %+v, want the four accepted documents", listed)
	}
	for _, info := range listed {
		if info.MaxDepth != 5 {
			t.Errorf("GET /docs: %s max_depth %d, want 5", info.Name, info.MaxDepth)
		}
	}
}

// TestRequestBodyCapReturns413: decodeBody's MaxBytesReader turns an
// oversized request body into an explicit 413, not a JSON syntax error.
func TestRequestBodyCapReturns413(t *testing.T) {
	s := New(Config{CacheSize: 32, MaxBodyBytes: 256})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big, _ := json.Marshal(map[string]string{
		"name": "huge", "xml": "<r>" + strings.Repeat("<a>x</a>", 200) + "</r>",
	})
	resp, err := http.Post(ts.URL+"/docs", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "byte limit") {
		t.Errorf("body %s does not mention the byte limit", raw)
	}
}

// TestHandlerRecoversPanics: a panicking plan build answers 500 and the
// server keeps serving. A panic that escapes every inner boundary (the
// respond site runs under no recover of its own) is converted to a
// counted 500 by the HTTP middleware instead of killing the connection,
// and the request's root span records the panic and status 500.
func TestHandlerRecoversPanics(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := failpoint.Enable(failpoint.SiteServerPlanBuild, "panic"); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(QueryRequest{Doc: "hospital", Query: "//diagnosis"})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if st := s.Stats(); st.Panics == 0 {
		t.Error("Stats().Panics = 0 after plan-build panic")
	}

	failpoint.DisableAll()
	resp, err = http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after recovery = %d, want 200", resp.StatusCode)
	}

	if err := failpoint.Enable(failpoint.SiteServerRespond, "panic"); err != nil {
		t.Fatal(err)
	}
	panics := s.Stats().Panics
	resp, err = http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || s.Stats().Panics != panics+1 {
		t.Fatalf("respond panic: status %d, %d panics counted; want 500 and one", resp.StatusCode, s.Stats().Panics-panics)
	}
	d := waitForTrace(t, s, resp.Header.Get("X-Smoqe-Trace-Id"))
	status := ""
	for _, a := range d.Spans[0].Attrs {
		if a.Key == "status" {
			status = a.Value
		}
	}
	if d.Spans[0].Name != "http" || status != "500" || !spanHasEvent(d, "http", "panic") {
		t.Errorf("root span %+v, want http with status 500 and a panic event", d.Spans[0])
	}
}

// TestBreakerLifecycle drives one view's breaker through its full state
// machine on a fake clock: consecutive server faults open it, requests
// during the cooldown are shed with 503 + Retry-After, the cooldown admits
// a single half-open probe, and a successful probe closes it again.
func TestBreakerLifecycle(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	s := newTestServer(t)
	clock := time.Now()
	s.brk.threshold = 3
	s.brk.cooldown = time.Minute
	s.brk.now = func() time.Time { return clock }

	req := QueryRequest{Doc: "hospital", View: "sigma0", Query: hospital.QExample11}
	if _, err := s.Query(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	// Trip it: plan-build faults count as server faults. Vary the query so
	// each request actually builds (failed builds are never cached).
	if err := failpoint.Enable(failpoint.SiteServerPlanBuild, "error"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_, err := s.Query(context.Background(), QueryRequest{
			Doc: "hospital", View: "sigma0", Query: fmt.Sprintf("department/patient[position()=%d]", i+1),
		})
		var fe *failpoint.Error
		if !errors.As(err, &fe) {
			t.Fatalf("fault %d: err = %v, want *failpoint.Error", i, err)
		}
	}
	if h := s.Health(); h.Breakers["sigma0"] != breakerOpen || h.Status != "degraded" {
		t.Fatalf("after faults: health = %+v, want open/degraded", h)
	}

	// Open: requests are shed without touching the failpoint.
	failpoint.DisableAll()
	_, err := s.Query(context.Background(), req)
	var boe *BreakerOpenError
	if !errors.As(err, &boe) {
		t.Fatalf("open breaker: err = %v, want *BreakerOpenError", err)
	}
	if boe.View != "sigma0" || boe.RetryAfter <= 0 {
		t.Errorf("BreakerOpenError = %+v", boe)
	}
	if got := statusFor(err); got != http.StatusServiceUnavailable {
		t.Errorf("statusFor = %d, want 503", got)
	}
	if st := s.Stats(); st.BreakerRejected == 0 {
		t.Error("Stats().BreakerRejected = 0 after shed request")
	}
	// The direct-document breaker is independent: untouched views serve.
	if _, err := s.Query(context.Background(), QueryRequest{Doc: "hospital", Query: "//diagnosis"}); err != nil {
		t.Fatalf("direct-document query during open breaker: %v", err)
	}

	// Cooldown elapses: the probe goes through and closes the breaker.
	clock = clock.Add(2 * time.Minute)
	if _, err := s.Query(context.Background(), req); err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if h := s.Health(); h.Breakers["sigma0"] != breakerClosed || h.Status != "ok" {
		t.Fatalf("after probe: health = %+v, want closed/ok", h)
	}
}

// TestBreakerReopensOnFailedProbe: a probe that faults sends the breaker
// straight back to open for a fresh cooldown.
func TestBreakerReopensOnFailedProbe(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	s := newTestServer(t)
	clock := time.Now()
	s.brk.threshold = 1
	s.brk.cooldown = time.Minute
	s.brk.now = func() time.Time { return clock }

	if err := failpoint.Enable(failpoint.SiteServerPlanBuild, "error"); err != nil {
		t.Fatal(err)
	}
	req := QueryRequest{Doc: "hospital", View: "sigma0", Query: hospital.QExample11}
	if _, err := s.Query(context.Background(), req); err == nil {
		t.Fatal("fault did not fail")
	}
	if h := s.Health(); h.Breakers["sigma0"] != breakerOpen {
		t.Fatalf("breaker = %q, want open", h.Breakers["sigma0"])
	}
	clock = clock.Add(2 * time.Minute)
	if _, err := s.Query(context.Background(), req); err == nil {
		t.Fatal("failed probe did not error")
	}
	if h := s.Health(); h.Breakers["sigma0"] != breakerOpen {
		t.Fatalf("breaker after failed probe = %q, want open again", h.Breakers["sigma0"])
	}
}

// TestServeGracefulShutdownUnderLoad: cancel Serve's context while slow
// requests are in flight. Every in-flight request must drain with a
// complete 200 response inside the grace window, and connections arriving
// after shutdown must be refused.
func TestServeGracefulShutdownUnderLoad(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	s := newTestServer(t)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, addr, 5*time.Second) }()

	// Wait for the listener to come up.
	url := "http://" + addr + "/query"
	body, _ := json.Marshal(QueryRequest{Doc: "hospital", Query: "//diagnosis"})
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up on %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Slow every response down so requests are genuinely in flight at
	// cancellation time.
	if err := failpoint.Enable(failpoint.SiteServerRespond, "sleep:300ms"); err != nil {
		t.Fatal(err)
	}
	const inflight = 8
	results := make(chan error, inflight)
	var started sync.WaitGroup
	started.Add(inflight)
	for i := 0; i < inflight; i++ {
		go func() {
			started.Done()
			resp, err := http.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				results <- err
				return
			}
			defer resp.Body.Close()
			var qr QueryResponse
			if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
				results <- fmt.Errorf("incomplete response: %w", err)
				return
			}
			if resp.StatusCode != http.StatusOK || qr.Count == 0 {
				results <- fmt.Errorf("status %d, count %d", resp.StatusCode, qr.Count)
				return
			}
			results <- nil
		}()
	}
	started.Wait()
	time.Sleep(100 * time.Millisecond) // let the requests reach the sleep
	cancel()

	for i := 0; i < inflight; i++ {
		if err := <-results; err != nil {
			t.Errorf("in-flight request %d: %v", i, err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not drain within grace")
	}

	// New connections after shutdown are refused.
	if resp, err := http.Post(url, "application/json", bytes.NewReader(body)); err == nil {
		resp.Body.Close()
		t.Error("request after shutdown succeeded")
	}
}
