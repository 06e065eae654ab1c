package crosscheck_test

// The chaos harness of docs/ROBUSTNESS.md: a full server under concurrent
// load with every failpoint firing randomly. The properties checked are
// the fault-tolerance contract of the serving stack:
//
//  1. the process never crashes and no request hangs past its deadline;
//  2. every failure is a structured error with a sane HTTP status;
//  3. fault-free responses are byte-identical to a clean run;
//  4. panics are recovered and counted (smoqe_panics_total > 0);
//  5. a hammered view's breaker opens, half-opens, and closes again.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smoqe/internal/datagen"
	"smoqe/internal/failpoint"
	"smoqe/internal/hospital"
	"smoqe/internal/server"
	"smoqe/internal/trace"
)

// elapsedRe and shardsRe mask the fields of a QueryResponse that differ
// between runs of one request: the evaluation time, and the shard cut and
// worker count of a "corpus" query, which the server sizes from the Ps the
// other evaluations leave idle (the golden run's lone client leaves more
// than eight chaos clients do).
var (
	elapsedRe = regexp.MustCompile(`"elapsed_us": ?\d+`)
	shardsRe  = regexp.MustCompile(`,"shards":\d+,"workers":\d+`)
)

func maskVarying(b []byte) string {
	b = shardsRe.ReplaceAll(b, nil)
	return string(elapsedRe.ReplaceAll(b, []byte(`"elapsed_us": X`)))
}

// chaosCorpusPatients sizes the "corpus" document for at least two shard
// workers (over 9,000 elements), so its queries reach the shard and merge
// fault sites.
const chaosCorpusPatients = 250

type chaosClient struct {
	t    *testing.T
	base string
	c    *http.Client
}

// post returns the status and masked body; a transport error (which
// includes the client timeout — a hung request) fails the test.
func (cc *chaosClient) post(path string, payload any) (int, string) {
	body, err := json.Marshal(payload)
	if err != nil {
		cc.t.Fatal(err)
	}
	resp, err := cc.c.Post(cc.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		cc.t.Errorf("request error (hang?): %v", err)
		return 0, ""
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		cc.t.Errorf("truncated response: %v", err)
		return 0, ""
	}
	return resp.StatusCode, maskVarying(raw)
}

func chaosQueries() []server.QueryRequest {
	return []server.QueryRequest{
		{Doc: "hospital", Query: "//diagnosis"},
		{Doc: "hospital", Query: hospital.XPA},
		{Doc: "hospital", View: "sigma0", Query: hospital.QExample11},
		{Doc: "corpus", Query: "//diagnosis", Parallelism: 2},
		{Doc: "corpus", Query: "department/patient[visit]/pname", Parallelism: 2},
		{Doc: "corpus", Query: "//patient[visit/treatment/medication/diagnosis/text()='heart disease']", Parallelism: 2},
		// Columnar evaluations ride the same golden comparison: their
		// responses must be byte-identical to a clean run too (and, modulo
		// the engine label, to the pointer path — same IDs, same stats).
		{Doc: "hospital", Query: "//diagnosis", Engine: server.EngineColumnar},
		{Doc: "corpus", Query: "department/patient[visit]/pname", Engine: server.EngineColumnar},
		{Doc: "corpus", View: "sigma0", Query: hospital.QExample11, Engine: server.EngineColumnar},
	}
}

func queryKey(q server.QueryRequest) string {
	return fmt.Sprintf("%s|%s|%s|%s|%d", q.Doc, q.View, q.Query, q.Engine, q.Parallelism)
}

func TestChaosServerSurvivesFailpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness")
	}
	t.Cleanup(failpoint.DisableAll)
	failpoint.DisableAll()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	s := server.New(server.Config{
		CacheSize:        64,
		BreakerThreshold: 3,
		BreakerCooldown:  200 * time.Millisecond,
	})
	if _, err := s.Registry().RegisterDocument("hospital", hospital.SampleDocument()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().RegisterDocument("corpus", datagen.Generate(datagen.DefaultConfig(chaosCorpusPatients))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterView("sigma0", hospital.Sigma0()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cc := &chaosClient{t: t, base: ts.URL, c: &http.Client{Timeout: 15 * time.Second}}

	queries := chaosQueries()

	// ---- Phase 1: clean golden run. The second response per query is the
	// golden (its cache_hit field is settled), so fault-free chaos
	// responses — always cache hits too — can be compared byte for byte.
	golden := make(map[string]string, len(queries))
	for _, q := range queries {
		for i := 0; i < 2; i++ {
			status, body := cc.post("/query", q)
			if status != http.StatusOK {
				t.Fatalf("golden run %v: status %d: %s", q, status, body)
			}
			golden[queryKey(q)] = body
		}
	}

	// ---- Phase 2: chaos. All five fault sites armed at 10%, 8 concurrent
	// clients, 512 requests. Some requests use fresh queries (so the
	// planbuild site actually fires — cached plans never rebuild) and some
	// register fresh documents (so the parse site fires).
	if _, err := failpoint.ArmSpec(
		"xmltree.parse=error@0.1," +
			"server.planbuild=error@0.1," +
			"hype.shard.worker=panic@0.1," +
			"hype.merge=error@0.1," +
			"server.respond=error@0.1"); err != nil {
		t.Fatal(err)
	}

	const (
		goroutines = 8
		perWorker  = 64
	)
	var okCount, faultCount atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				seq := g*perWorker + i
				switch {
				case seq%16 == 7:
					// Fresh document: exercises xmltree.parse.
					status, body := cc.post("/docs", map[string]string{
						"name": fmt.Sprintf("chaos-%d", seq),
						"xml":  "<r><a>x</a><a>y</a></r>",
					})
					if status != http.StatusCreated && status != http.StatusInternalServerError {
						t.Errorf("chaos doc %d: status %d: %s", seq, status, body)
					}
					continue
				case seq%8 == 3:
					// Fresh query: exercises server.planbuild.
					q := server.QueryRequest{
						Doc:   "hospital",
						Query: fmt.Sprintf("department/patient[position()=%d]", seq),
					}
					status, body := cc.post("/query", q)
					switch status {
					case http.StatusOK, http.StatusInternalServerError, http.StatusServiceUnavailable:
					default:
						t.Errorf("chaos build %d: status %d: %s", seq, status, body)
					}
					continue
				}
				q := queries[seq%len(queries)]
				status, body := cc.post("/query", q)
				switch status {
				case http.StatusOK:
					okCount.Add(1)
					if want := golden[queryKey(q)]; body != want {
						t.Errorf("fault-free response for %v differs from golden:\n got %s\nwant %s", q, body, want)
					}
				case http.StatusInternalServerError, http.StatusServiceUnavailable:
					faultCount.Add(1)
				case 0:
					// post already reported the transport error.
				default:
					t.Errorf("chaos %v: unexpected status %d: %s", q, status, body)
				}
			}
		}(g)
	}
	wg.Wait()

	st := s.Stats()
	t.Logf("chaos: %d ok, %d faulted; panics=%d failures=%d breaker_rejected=%d",
		okCount.Load(), faultCount.Load(), st.Panics, st.Failures, st.BreakerRejected)
	if okCount.Load() == 0 {
		t.Error("no fault-free responses during chaos — nothing was verified against the golden run")
	}
	if faultCount.Load() == 0 {
		t.Error("no faults surfaced during chaos — failpoints did not fire")
	}
	if st.Panics == 0 {
		t.Error("smoqe_panics_total stayed 0 despite panic failpoints")
	}

	// Chaos may have tripped breakers; with the faults disarmed, probes
	// close them again (one successful request per cooldown window).
	failpoint.DisableAll()
	for _, q := range queries {
		deadline := time.Now().Add(10 * time.Second)
		for {
			if status, _ := cc.post("/query", q); status == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("breaker for %v never recovered after chaos", q)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// ---- Phase 3: deterministic shard panic. With chaos disarmed and one
	// guaranteed panic site armed, the request fails 500 and the server
	// keeps serving.
	if err := failpoint.Enable(failpoint.SiteHypeShardWorker, "panic"); err != nil {
		t.Fatal(err)
	}
	panicsBefore := s.Stats().Panics
	status, body := cc.post("/query", server.QueryRequest{Doc: "corpus", Query: "//diagnosis", Parallelism: 2})
	if status != http.StatusInternalServerError {
		t.Errorf("deterministic panic: status %d: %s", status, body)
	}
	if got := s.Stats().Panics; got <= panicsBefore {
		t.Errorf("panic counter did not move: %d -> %d", panicsBefore, got)
	}
	failpoint.DisableAll()

	// ---- Phase 4: breaker lifecycle over HTTP. Hammer one view until its
	// breaker opens, observe the 503 + Retry-After, let the cooldown pass,
	// and watch the half-open probe close it.
	if err := failpoint.Enable(failpoint.SiteServerRespond, "error"); err != nil {
		t.Fatal(err)
	}
	viewReq := server.QueryRequest{Doc: "hospital", View: "sigma0", Query: hospital.QExample11}
	deadline := time.Now().Add(10 * time.Second)
	for breakerState(t, cc, "sigma0") != "open" {
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened under guaranteed respond faults")
		}
		cc.post("/query", viewReq)
	}
	// Open: shed immediately with a Retry-After hint.
	raw, err := json.Marshal(viewReq)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cc.c.Post(ts.URL+"/query", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("open breaker: status %d, want 503", resp.StatusCode)
	} else if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}

	// Recovery: disarm, wait out the cooldown, probe until closed.
	failpoint.DisableAll()
	sawHalfOpenOrClosed := false
	deadline = time.Now().Add(10 * time.Second)
	for {
		state := breakerState(t, cc, "sigma0")
		if state == "half-open" || state == "closed" {
			sawHalfOpenOrClosed = true
		}
		if state == "closed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker stuck %q after faults stopped", state)
		}
		time.Sleep(50 * time.Millisecond)
		cc.post("/query", viewReq)
	}
	if !sawHalfOpenOrClosed {
		t.Error("breaker never left the open state")
	}

	// ---- Phase 5: full recovery. Every golden query answers byte-identically
	// to the clean run.
	for _, q := range queries {
		status, body := cc.post("/query", q)
		if status != http.StatusOK {
			t.Errorf("post-chaos %v: status %d: %s", q, status, body)
			continue
		}
		if want := golden[queryKey(q)]; body != want {
			t.Errorf("post-chaos response for %v differs from golden:\n got %s\nwant %s", q, body, want)
		}
	}
}

// TestFailpointRequestsYieldRetainedTraces: every failpoint-fired request
// leaves a retained trace behind, and that trace contains the failing
// span's classified event with the fault site attached — the tracing
// contract of docs/OBSERVABILITY.md. Deterministic: one site armed at
// 100% per case, one request, one trace.
func TestFailpointRequestsYieldRetainedTraces(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	failpoint.DisableAll()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	s := server.New(server.Config{
		CacheSize:        64,
		BreakerThreshold: -1, // breakers off: every request must reach its fault site
		TraceSampleEvery: -1, // only error retention keeps these traces
	})
	if _, err := s.Registry().RegisterDocument("hospital", hospital.SampleDocument()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().RegisterDocument("corpus", datagen.Generate(datagen.DefaultConfig(chaosCorpusPatients))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cc := &chaosClient{t: t, base: ts.URL, c: &http.Client{Timeout: 15 * time.Second}}

	parallel := server.QueryRequest{Doc: "corpus", Query: "//diagnosis", Parallelism: 2}
	cases := []struct {
		site  string
		mode  string
		event string // the classified span event the trace must contain
		req   server.QueryRequest
	}{
		// Fresh query so the single-flight build actually runs.
		{failpoint.SiteServerPlanBuild, "error", "failpoint",
			server.QueryRequest{Doc: "hospital", Query: "department/patient[position()=1]"}},
		{failpoint.SiteHypeShardWorker, "panic", "panic", parallel},
		{failpoint.SiteHypeMerge, "error", "failpoint", parallel},
		{failpoint.SiteServerRespond, "error", "failpoint",
			server.QueryRequest{Doc: "hospital", Query: "//diagnosis"}},
	}
	for _, tc := range cases {
		// Warm the plan (and shard layout) with the site disarmed so only
		// the armed site can fail the traced request.
		if tc.site != failpoint.SiteServerPlanBuild {
			if status, body := cc.post("/query", tc.req); status != http.StatusOK {
				t.Fatalf("%s: warm-up status %d: %s", tc.site, status, body)
			}
		}
		if err := failpoint.Enable(tc.site, tc.mode); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := cc.c.Post(ts.URL+"/query", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		failpoint.DisableAll()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("%s: status %d, want 500", tc.site, resp.StatusCode)
			continue
		}
		traceID := resp.Header.Get("X-Smoqe-Trace-Id")
		if traceID == "" {
			t.Errorf("%s: failed response carries no X-Smoqe-Trace-Id", tc.site)
			continue
		}

		// The root span ends after the response is flushed; give the store
		// a moment to see the submission.
		var d *trace.Data
		deadline := time.Now().Add(5 * time.Second)
		for {
			var ok bool
			if d, ok = s.Traces().Get(traceID); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: trace %s was not retained", tc.site, traceID)
			}
			time.Sleep(time.Millisecond)
		}
		if d.Status != "error" || d.Retained != trace.RetainError {
			t.Errorf("%s: trace status=%q retained=%q, want error/error", tc.site, d.Status, d.Retained)
		}
		found := false
		for _, sp := range d.Spans {
			for _, ev := range sp.Events {
				if ev.Name != tc.event {
					continue
				}
				for _, a := range ev.Attrs {
					if a.Key == "site" && a.Value == tc.site {
						found = true
					}
				}
			}
		}
		if !found {
			t.Errorf("%s: no span in trace %s carries a %q event with site=%s (spans: %+v)",
				tc.site, traceID, tc.event, tc.site, d.Spans)
		}
	}
}

// breakerState reads one view's breaker state from /healthz ("" when the
// breaker has seen no traffic yet).
func breakerState(t *testing.T, cc *chaosClient, view string) string {
	t.Helper()
	resp, err := cc.c.Get(cc.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Breakers map[string]string `json:"breakers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.Breakers[view]
}
