package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smoqe/internal/datagen"
	"smoqe/internal/failpoint"
	"smoqe/internal/hospital"
)

func newLoadedServer(t *testing.T, cfg Config, patients int) *Server {
	t.Helper()
	s := New(cfg)
	if _, err := s.Registry().RegisterDocument("gen", datagen.Generate(datagen.DefaultConfig(patients))); err != nil {
		t.Fatal(err)
	}
	return s
}

// withProcs runs the rest of the test at GOMAXPROCS n, the count the
// server sizes shard-parallel evaluations from.
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestParallelQueryMatchesSequential: POST /query's parallelism knob must
// not change answers, and the response must report the shard cut.
func TestParallelQueryMatchesSequential(t *testing.T) {
	withProcs(t, 4)
	s := newLoadedServer(t, Config{}, 2000)
	for _, src := range []string{"//diagnosis", "department/patient[not(visit)]"} {
		for _, engine := range []EngineKind{EngineHyPE, EngineOptHyPE, EngineColumnar} {
			seq, err := s.Query(context.Background(), QueryRequest{Doc: "gen", Query: src, Engine: engine, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			if seq.Shards != 0 || seq.Workers != 0 {
				t.Errorf("%s (%s): sequential response reports shards=%d workers=%d", src, engine, seq.Shards, seq.Workers)
			}
			par, err := s.Query(context.Background(), QueryRequest{Doc: "gen", Query: src, Engine: engine, Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(par.IDs) != fmt.Sprint(seq.IDs) {
				t.Errorf("%s (%s): parallel answers differ", src, engine)
			}
			if par.Shards == 0 || par.Workers == 0 {
				t.Errorf("%s (%s): parallel response reports shards=%d workers=%d", src, engine, par.Shards, par.Workers)
			}
			// The per-run engine statistics must be the sequential ones.
			if par.Visited != seq.Visited || par.Skipped != seq.Skipped || par.SkippedElements != seq.SkippedElements || par.AFAEvals != seq.AFAEvals {
				t.Errorf("%s (%s): parallel stats differ: visited %d vs %d, skipped %d vs %d, afa %d vs %d",
					src, engine, par.Visited, seq.Visited, par.Skipped, seq.Skipped, par.AFAEvals, seq.AFAEvals)
			}
		}
	}
	if s.met.parallelEvals.Value() == 0 || s.met.shards.Value() == 0 {
		t.Errorf("parallel metrics not recorded: evals=%d shards=%d",
			s.met.parallelEvals.Value(), s.met.shards.Value())
	}
}

// TestParallelismChosenByServer: a /query evaluates with the Ps the server
// has idle, at most one worker per elementsPerWorker elements of the
// document, unless it asks for 1 or for explain; it evaluates sequentially
// while busy fills the Ps and on a document too small for two workers.
// Answers and counts are always the sequential run's, and busy is back at
// 0 after every request.
func TestParallelismChosenByServer(t *testing.T) {
	withProcs(t, 2)
	s := newLoadedServer(t, Config{}, 2000)
	for _, d := range []struct {
		name     string
		patients int
		lo, hi   int // the document's elements lie in [lo, hi)
	}{
		{"small", 100, 0, 2 * elementsPerWorker},
		{"mid", 250, 2 * elementsPerWorker, 3 * elementsPerWorker},
	} {
		doc := datagen.Generate(datagen.DefaultConfig(d.patients))
		if n := doc.ComputeStats().Elements; n < d.lo || n >= d.hi {
			t.Fatalf("document %s has %d elements, want [%d, %d)", d.name, n, d.lo, d.hi)
		}
		if _, err := s.Registry().RegisterDocument(d.name, doc); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name    string
		procs   int
		req     QueryRequest
		busy    int64 // goroutines another evaluation holds
		workers int
	}{
		{"idle", 2, QueryRequest{Doc: "gen"}, 0, 2},
		{"negative", 2, QueryRequest{Doc: "gen", Parallelism: -1}, 0, 2},
		{"cap above the Ps", 2, QueryRequest{Doc: "gen", Parallelism: 8}, 0, 2},
		{"cap 2", 2, QueryRequest{Doc: "gen", Parallelism: 2}, 0, 2},
		{"one P busy", 2, QueryRequest{Doc: "gen"}, 1, 0},
		{"every P busy", 2, QueryRequest{Doc: "gen", Parallelism: 2}, 2, 0},
		{"too small for two", 2, QueryRequest{Doc: "small"}, 0, 0},
		{"parallelism 1", 2, QueryRequest{Doc: "gen", Parallelism: 1}, 0, 0},
		{"explain", 2, QueryRequest{Doc: "gen", Explain: true}, 0, 0},
		{"four Ps idle", 4, QueryRequest{Doc: "gen"}, 0, 4},
		{"four Ps, one busy", 4, QueryRequest{Doc: "gen"}, 1, 3},
		{"four Ps, cap 3", 4, QueryRequest{Doc: "gen", Parallelism: 3}, 0, 3},
		{"four Ps, two workers' worth", 4, QueryRequest{Doc: "mid"}, 0, 2},
		{"four Ps, too small for two", 4, QueryRequest{Doc: "small"}, 0, 0},
	} {
		runtime.GOMAXPROCS(tc.procs)
		for _, engine := range []EngineKind{EngineHyPE, EngineOptHyPE} {
			for _, src := range []string{hospital.RXC, "//diagnosis"} {
				seq, err := s.Query(context.Background(), QueryRequest{Doc: tc.req.Doc, Query: src, Engine: engine, Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				req := tc.req
				req.Query, req.Engine = src, engine
				s.busy.Add(tc.busy)
				got, err := s.Query(context.Background(), req)
				s.busy.Add(-tc.busy)
				if err != nil {
					t.Fatalf("%s %s %q: %v", tc.name, engine, src, err)
				}
				if got.Workers != tc.workers || (got.Shards > 0) != (tc.workers > 0) {
					t.Errorf("%s %s %q: %d shards on %d workers, want %d workers", tc.name, engine, src, got.Shards, got.Workers, tc.workers)
				}
				if fmt.Sprint(got.IDs) != fmt.Sprint(seq.IDs) || got.Visited != seq.Visited || got.Skipped != seq.Skipped ||
					got.SkippedElements != seq.SkippedElements || got.AFAEvals != seq.AFAEvals {
					t.Errorf("%s %s %q: %d answers %+v, sequential %d %+v", tc.name, engine, src, got.Count, got, seq.Count, seq)
				}
				if b := s.busy.Load(); b != 0 {
					t.Fatalf("%s: busy = %d after the request, want 0", tc.name, b)
				}
			}
		}
	}
}

// TestInflightGaugeCountsBusy: smoqe_inflight_evaluations reads the
// goroutines evaluating — with admission control off, as by default —
// while a shard-parallel /query is held open in its workers, and 0 once it
// has answered.
func TestInflightGaugeCountsBusy(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	withProcs(t, 2)
	s := newLoadedServer(t, Config{}, 2000)
	gauge := func() int64 {
		var scrape bytes.Buffer
		if err := s.Telemetry().WritePrometheus(&scrape); err != nil {
			t.Fatal(err)
		}
		return metricValue(t, scrape.String(), "smoqe_inflight_evaluations")
	}
	if got := gauge(); got != 0 {
		t.Fatalf("idle gauge = %d, want 0", got)
	}
	if err := failpoint.Enable(failpoint.SiteHypeShardWorker, "sleep:100ms"); err != nil {
		t.Fatal(err)
	}
	done := make(chan *QueryResponse, 1)
	go func() {
		resp, err := s.Query(context.Background(), QueryRequest{Doc: "gen", Query: "//diagnosis"})
		if err != nil {
			t.Error(err)
		}
		done <- resp
	}()
	peak := int64(0)
	for deadline := time.Now().Add(10 * time.Second); peak == 0 && time.Now().Before(deadline); {
		peak = gauge()
		time.Sleep(time.Millisecond)
	}
	resp := <-done
	failpoint.DisableAll()
	if resp == nil || resp.Workers != 2 {
		t.Fatalf("the held query answered %+v, want 2 workers", resp)
	}
	if peak != 2 {
		t.Errorf("gauge read %d while the query evaluated, want its 2 workers", peak)
	}
	if got := gauge(); got != 0 {
		t.Errorf("gauge = %d after the query answered, want 0", got)
	}
}

// TestAdmissionControlSheds: with every evaluation slot busy for longer
// than the queue deadline, requests are shed with ErrOverloaded — mapped
// to HTTP 429 with a Retry-After header — instead of queueing forever.
func TestAdmissionControlSheds(t *testing.T) {
	s := newLoadedServer(t, Config{MaxConcurrentEvals: 1, QueueWait: 20 * time.Millisecond}, 200)

	s.sem <- struct{}{} // occupy the only slot
	_, err := s.Query(context.Background(), QueryRequest{Doc: "gen", Query: "//diagnosis"})
	if err == nil || !strings.Contains(err.Error(), ErrOverloaded.Error()) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	if got := s.Stats().Shed; got != 1 {
		t.Errorf("Stats.Shed = %d, want 1", got)
	}

	// Same over HTTP: 429 + Retry-After.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/query", strings.NewReader(`{"doc":"gen","query":"//diagnosis"}`))
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}

	// Releasing the slot restores service.
	<-s.sem
	if _, err := s.Query(context.Background(), QueryRequest{Doc: "gen", Query: "//diagnosis"}); err != nil {
		t.Fatalf("query after release: %v", err)
	}
	if got := len(s.sem); got != 0 {
		t.Errorf("slot leaked: %d in flight after completion", got)
	}
}

// countdownCtx flips to Canceled after its Err budget is spent — a
// deterministic client disconnect mid-evaluation.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(budget int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(budget)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelledRequestStopsEvaluating: the regression the old evaluate()
// had — a disconnected client's evaluation kept burning a full HyPE run.
// Now the engine must abort mid-DFS, the request must fail, and the abort
// must be recorded in /metrics.
func TestCancelledRequestStopsEvaluating(t *testing.T) {
	// RequestTimeout < 0 disables the server's own deadline so the fake
	// context reaches the engine unchanged.
	s := newLoadedServer(t, Config{RequestTimeout: -1}, 3000)

	_, err := s.Query(newCountdownCtx(5), QueryRequest{Doc: "gen", Query: "//diagnosis"})
	if err == nil {
		t.Fatal("cancelled request returned no error")
	}
	if got := s.Stats().Cancelled; got != 1 {
		t.Errorf("Stats.Cancelled = %d, want 1", got)
	}
	// No successful run happened, so no engine work was accounted — the
	// partial run's stats must not pollute the aggregates.
	if got := s.Stats().VisitedElements; got != 0 {
		t.Errorf("cancelled run leaked %d visited elements into aggregates", got)
	}

	// The parallel path honors cancellation the same way.
	_, err = s.Query(newCountdownCtx(5), QueryRequest{Doc: "gen", Query: "//diagnosis", Parallelism: 4})
	if err == nil {
		t.Fatal("cancelled parallel request returned no error")
	}

	// And a real context cancelled from another goroutine aborts promptly.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := s.Query(ctx, QueryRequest{Doc: "gen", Query: "//diagnosis"}); err != nil {
			return
		}
	}
	t.Fatal("queries kept completing despite cancelled context")
}
