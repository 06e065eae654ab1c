package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smoqe/internal/datagen"
)

func newLoadedServer(t *testing.T, cfg Config, patients int) *Server {
	t.Helper()
	s := New(cfg)
	if _, err := s.Registry().RegisterDocument("gen", datagen.Generate(datagen.DefaultConfig(patients))); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestParallelQueryMatchesSequential: POST /query's parallelism knob must
// not change answers, and the response must report the shard cut.
func TestParallelQueryMatchesSequential(t *testing.T) {
	s := newLoadedServer(t, Config{MaxParallelism: 4}, 2000)
	for _, src := range []string{"//diagnosis", "department/patient[not(visit)]"} {
		for _, engine := range []EngineKind{EngineHyPE, EngineOptHyPE, EngineColumnar} {
			seq, err := s.Query(context.Background(), QueryRequest{Doc: "gen", Query: src, Engine: engine})
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

// TestParallelismDisabledByDefault: without MaxParallelism the knob is
// ignored and requests evaluate sequentially.
func TestParallelismDisabledByDefault(t *testing.T) {
	s := newLoadedServer(t, Config{}, 200)
	resp, err := s.Query(context.Background(), QueryRequest{Doc: "gen", Query: "//diagnosis", Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Shards != 0 || resp.Workers != 0 {
		t.Errorf("parallelism should be disabled: shards=%d workers=%d", resp.Shards, resp.Workers)
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
	s := newLoadedServer(t, Config{RequestTimeout: -1, MaxParallelism: 4}, 3000)

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
