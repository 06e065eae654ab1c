package server

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"smoqe"
	"smoqe/internal/hospital"
)

func TestPlanCacheLRU(t *testing.T) {
	c := NewPlanCache(2)
	build := func(src string) func() (*smoqe.PreparedQuery, error) {
		return func() (*smoqe.PreparedQuery, error) { return smoqe.Prepare(nil, src) }
	}
	k := func(q string) PlanKey { return PlanKey{Query: q} }

	p1, out, err := c.GetOrBuildOutcome(k("a"), build("a"))
	if err != nil || out == PlanCacheHit {
		t.Fatalf("first build: outcome=%v err=%v", out, err)
	}
	if p2, out, _ := c.GetOrBuildOutcome(k("a"), build("a")); out != PlanCacheHit || p2 != p1 {
		t.Fatalf("second get: outcome=%v same=%v", out, p2 == p1)
	}
	c.GetOrBuildOutcome(k("b"), build("b"))
	c.GetOrBuildOutcome(k("a"), build("a")) // refresh a, so b is now LRU
	c.GetOrBuildOutcome(k("c"), build("c")) // evicts b
	if _, out, _ := c.GetOrBuildOutcome(k("a"), build("a")); out != PlanCacheHit {
		t.Error("a should have survived (refreshed before eviction)")
	}
	// Checked after a: a miss re-inserts b and would evict a.
	if _, out, _ := c.GetOrBuildOutcome(k("b"), build("b")); out == PlanCacheHit {
		t.Error("b should have been evicted")
	}
	st := c.Stats()
	if st.Evictions < 1 {
		t.Errorf("evictions = %d, want >= 1", st.Evictions)
	}
	if st.Hits < 2 || st.Misses < 3 {
		t.Errorf("counters look wrong: %+v", st)
	}
	if st.Size > st.Capacity {
		t.Errorf("size %d over capacity %d", st.Size, st.Capacity)
	}
}

func TestPlanCacheErrorNotCached(t *testing.T) {
	c := NewPlanCache(4)
	calls := 0
	key := PlanKey{Query: "broken"}
	bad := func() (*smoqe.PreparedQuery, error) { calls++; return nil, fmt.Errorf("boom") }
	if _, _, err := c.GetOrBuildOutcome(key, bad); err == nil {
		t.Fatal("want error")
	}
	if _, _, err := c.GetOrBuildOutcome(key, bad); err == nil {
		t.Fatal("want error again (errors must not be cached)")
	}
	if calls != 2 {
		t.Errorf("build called %d times, want 2", calls)
	}
	if c.Len() != 0 {
		t.Errorf("failed builds must not occupy cache slots, len=%d", c.Len())
	}
}

// TestPlanCacheSingleFlight: concurrent misses on one key build the plan
// once and share it.
func TestPlanCacheSingleFlight(t *testing.T) {
	c := NewPlanCache(8)
	var mu sync.Mutex
	builds := 0
	gate := make(chan struct{})
	build := func() (*smoqe.PreparedQuery, error) {
		mu.Lock()
		builds++
		mu.Unlock()
		<-gate // hold every builder until all goroutines have arrived
		return smoqe.Prepare(nil, "//x")
	}
	key := PlanKey{Query: "//x"}
	const n = 8
	var wg sync.WaitGroup
	plans := make([]*smoqe.PreparedQuery, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _, err := c.GetOrBuildOutcome(key, build)
			if err != nil {
				t.Error(err)
			}
			plans[i] = p
		}(i)
	}
	close(gate)
	wg.Wait()
	if builds != 1 {
		t.Errorf("plan built %d times, want 1 (single-flight)", builds)
	}
	for i := 1; i < n; i++ {
		if plans[i] != plans[0] {
			t.Errorf("goroutine %d got a different plan instance", i)
		}
	}
}

func TestPlanCacheRemoveView(t *testing.T) {
	c := NewPlanCache(8)
	mk := func(view, q string) PlanKey { return PlanKey{View: view, Query: q} }
	for _, k := range []PlanKey{mk("v1", "a"), mk("v1", "b"), mk("v2", "a"), mk("", "a")} {
		if _, _, err := c.GetOrBuildOutcome(k, func() (*smoqe.PreparedQuery, error) { return smoqe.Prepare(nil, "a") }); err != nil {
			t.Fatal(err)
		}
	}
	c.RemoveView("v1")
	if c.Len() != 2 {
		t.Fatalf("after RemoveView: len=%d, want 2", c.Len())
	}
	if _, out, _ := c.GetOrBuildOutcome(mk("v2", "a"), func() (*smoqe.PreparedQuery, error) { return smoqe.Prepare(nil, "a") }); out != PlanCacheHit {
		t.Error("v2 plan should have survived")
	}
	if _, out, _ := c.GetOrBuildOutcome(mk("", "a"), func() (*smoqe.PreparedQuery, error) { return smoqe.Prepare(nil, "a") }); out != PlanCacheHit {
		t.Error("viewless plan should have survived")
	}
}

// TestPlanCacheFirstBuildFailsSecondSucceeds: a failed build must neither
// be cached as a negative entry nor block the retry that succeeds.
func TestPlanCacheFirstBuildFailsSecondSucceeds(t *testing.T) {
	c := NewPlanCache(4)
	key := PlanKey{Query: "department/patient"}
	calls := 0
	build := func() (*smoqe.PreparedQuery, error) {
		calls++
		if calls == 1 {
			return nil, fmt.Errorf("transient failure")
		}
		return smoqe.Prepare(nil, "department/patient")
	}
	if _, _, err := c.GetOrBuildOutcome(key, build); err == nil {
		t.Fatal("first build should have failed")
	}
	plan, out, err := c.GetOrBuildOutcome(key, build)
	if err != nil || plan == nil {
		t.Fatalf("second build: plan=%v err=%v", plan, err)
	}
	if out == PlanCacheHit {
		t.Error("second call reported a cache hit; the failure must not have been cached")
	}
	if plan2, out, err := c.GetOrBuildOutcome(key, build); err != nil || out != PlanCacheHit || plan2 != plan {
		t.Errorf("third call: outcome=%v err=%v same=%v, want cached success", out, err, plan2 == plan)
	}
	if calls != 2 {
		t.Errorf("build called %d times, want 2", calls)
	}
}

// TestPlanCacheBuildPanicReleasesWaiters: a panicking build must not hang
// concurrent waiters on the in-flight slot nor leak it — both the builder
// and every waiter get an error, and the next request retries cleanly.
func TestPlanCacheBuildPanicReleasesWaiters(t *testing.T) {
	c := NewPlanCache(4)
	key := PlanKey{Query: "q"}
	entered := make(chan struct{})
	release := make(chan struct{})
	panicking := func() (*smoqe.PreparedQuery, error) {
		close(entered)
		<-release
		panic("builder exploded")
	}

	builderErr := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrBuildOutcome(key, panicking)
		builderErr <- err
	}()
	<-entered
	waiterErr := make(chan error, 1)
	go func() {
		// This call joins the in-flight build and must not hang forever.
		_, _, err := c.GetOrBuildOutcome(key, panicking)
		waiterErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter park on the slot
	close(release)

	for name, ch := range map[string]chan error{"builder": builderErr, "waiter": waiterErr} {
		select {
		case err := <-ch:
			if err == nil {
				t.Errorf("%s: want an error from the panicked build", name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s hung: the panicked build leaked its in-flight slot", name)
		}
	}
	if c.Len() != 0 {
		t.Errorf("panicked build occupies a cache slot, len=%d", c.Len())
	}
	// The slot is free again: a well-behaved build succeeds.
	plan, _, err := c.GetOrBuildOutcome(key, func() (*smoqe.PreparedQuery, error) {
		return smoqe.Prepare(nil, "department/patient")
	})
	if err != nil || plan == nil {
		t.Fatalf("rebuild after panic: plan=%v err=%v", plan, err)
	}
}

// TestPlanSharedAcrossEngines: a plan is keyed by (view, query) alone, so
// one query asked for with each engine is built once and then hit twice —
// the pools and bindings that differ per engine live inside the plan.
func TestPlanSharedAcrossEngines(t *testing.T) {
	s := newTestServer(t)
	for i, engine := range []EngineKind{EngineHyPE, EngineOptHyPE, EngineColumnar} {
		resp, err := s.Query(context.Background(), QueryRequest{
			Doc: "hospital", View: "sigma0", Query: hospital.QExample11, Engine: engine,
		})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if resp.CacheHit != (i > 0) {
			t.Errorf("%s: cache_hit = %v, want %v", engine, resp.CacheHit, i > 0)
		}
	}
	if st := s.Cache().Stats(); st.Misses != 1 || st.Hits != 2 || st.Size != 1 {
		t.Errorf("plan cache = %+v, want 1 miss, 2 hits, 1 plan", st)
	}
}
