package server

import (
	"container/list"
	"fmt"
	"sync"

	"smoqe"
	"smoqe/internal/failpoint"
	"smoqe/internal/guard"
)

// PlanKey identifies one cached query plan: the view registration the
// query is posed against (name and generation; empty and 0 for direct
// queries on the source) and the query text. Two requests with the same
// key share one PreparedQuery — and therefore skip the
// O(|Q|²|σ||D_V|²) rewrite — no matter which document they target or
// which engine they ask for: a rewritten automaton depends only on the
// view, and a PreparedQuery keeps no per-document state.
type PlanKey struct {
	View    string
	ViewGen uint64
	Query   string
}

// EngineKind selects the evaluation strategy for a request.
type EngineKind string

const (
	// EngineHyPE is plain single-pass evaluation (the default) over the
	// document's columnar form.
	EngineHyPE EngineKind = "hype"
	// EngineOptHyPE adds index-driven subtree skipping; the document's
	// OptHyPE-C index is built lazily on first use.
	EngineOptHyPE EngineKind = "opthype"
	// EngineColumnar runs the same evaluation as EngineHyPE; it stays a
	// valid engine name for the clients that send it.
	EngineColumnar EngineKind = "columnar"
)

// CacheStats is a snapshot of plan-cache effectiveness counters.
type CacheStats struct {
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// PlanCache is an LRU cache of prepared query plans with single-flight
// plan building: when several requests miss on the same key concurrently,
// only one runs the parse/rewrite/compile pipeline and the others wait for
// its result. Safe for concurrent use.
type PlanCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // guarded by mu; front = most recently used
	// entries is guarded by mu.
	entries map[PlanKey]*list.Element
	// building is guarded by mu.
	building  map[PlanKey]*buildCall
	hits      int64 // guarded by mu
	misses    int64 // guarded by mu
	evictions int64 // guarded by mu
}

type cacheEntry struct {
	key  PlanKey
	plan *smoqe.PreparedQuery
}

type buildCall struct {
	done chan struct{}
	plan *smoqe.PreparedQuery
	err  error
}

// NewPlanCache returns a cache holding at most capacity plans (minimum 1).
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[PlanKey]*list.Element),
		building: make(map[PlanKey]*buildCall),
	}
}

// PlanOutcome says how GetOrBuildOutcome satisfied a lookup: a cache hit,
// a build run by this caller, or a wait on a concurrent caller's build
// (single-flight). Request traces record the outcome on their "plan" span.
type PlanOutcome int

const (
	// PlanCacheHit: the plan was already cached.
	PlanCacheHit PlanOutcome = iota
	// PlanCacheBuilt: this caller ran the parse/rewrite/compile build.
	PlanCacheBuilt
	// PlanCacheWaited: a concurrent caller was already building the same
	// plan; this caller waited for its result.
	PlanCacheWaited
)

// GetOrBuildOutcome returns the plan cached under key, building it with
// build on a miss, and says how the lookup was satisfied. Build errors are
// not cached: a later request retries. A build that panics is reported as
// a build error (to this caller and every waiter alike) rather than left
// as a permanently hung in-flight slot.
func (c *PlanCache) GetOrBuildOutcome(key PlanKey, build func() (*smoqe.PreparedQuery, error)) (*smoqe.PreparedQuery, PlanOutcome, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		plan := el.Value.(*cacheEntry).plan
		c.mu.Unlock()
		return plan, PlanCacheHit, nil
	}
	c.misses++
	if call, ok := c.building[key]; ok {
		// Someone else is already building this plan; wait for it.
		c.mu.Unlock()
		<-call.done
		return call.plan, PlanCacheWaited, call.err
	}
	call := &buildCall{done: make(chan struct{})}
	c.building[key] = call
	c.mu.Unlock()

	c.runBuild(key, call, build)
	return call.plan, PlanCacheBuilt, call.err
}

// runBuild executes one single-flight build. The cleanup is deferred so it
// runs even when build panics: waiters are released (with an error, never
// a nil plan), the in-flight slot is freed so later requests retry, and
// only successful plans enter the cache.
func (c *PlanCache) runBuild(key PlanKey, call *buildCall, build func() (*smoqe.PreparedQuery, error)) {
	defer func() {
		if r := recover(); r != nil {
			call.plan, call.err = nil, fmt.Errorf("server: plan build: %w", guard.Recovered(failpoint.SiteServerPlanBuild, r))
		}
		close(call.done)
		c.mu.Lock()
		delete(c.building, key)
		if call.err == nil {
			c.insert(key, call.plan)
		}
		c.mu.Unlock()
	}()
	call.plan, call.err = build()
}

// insert adds the plan under key and evicts the least recently used entry
// if the cache is over capacity. Caller holds c.mu.
func (c *PlanCache) insert(key PlanKey, plan *smoqe.PreparedQuery) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).plan = plan
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, plan: plan})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// RemoveView drops every cached plan rewritten over the named view. Called
// when a view is re-registered: the old plans answer the old definition
// and, keyed by its generation, are unreachable anyway; this frees them.
func (c *PlanCache) RemoveView(view string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.entries {
		if key.View == view {
			c.ll.Remove(el)
			delete(c.entries, key)
		}
	}
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Size:      c.ll.Len(),
		Capacity:  c.capacity,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
