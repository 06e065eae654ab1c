package server

import (
	"sync"
	"time"
)

// SlowQuery is one entry of the slow-query log: enough context to re-run
// the request (doc, view, query, engine) plus what it cost.
type SlowQuery struct {
	Time          time.Time  `json:"time"`
	Doc           string     `json:"doc"`
	View          string     `json:"view,omitempty"`
	Query         string     `json:"query"`
	Engine        EngineKind `json:"engine"`
	ElapsedMicros int64      `json:"elapsed_us"`
	Count         int        `json:"count"`
	Visited       int        `json:"visited_elements"`
	CacheHit      bool       `json:"cache_hit"`
	// TraceID links the entry to its request trace. Slow queries are always
	// retained by the tracer (the latency threshold defaults to the slow-query
	// threshold), so the trace is fetchable from GET /traces/{id}.
	TraceID string `json:"trace_id,omitempty"`
}

// SlowLog is a fixed-capacity ring buffer of queries slower than a
// threshold. When full, a new entry overwrites the oldest — the log holds
// the most recent slow queries, and Total keeps the lifetime count. Safe
// for concurrent use.
//
// The ring is uniform: buf is allocated at full capacity up front, size
// counts the occupied slots and next is the write position. The invariant
// is simply buf[(next-size+i) mod cap] for i in [0,size) holds the
// retained entries oldest-to-newest — the same arithmetic whether or not
// the ring has wrapped, so wraparound needs no special case. (The previous
// grow-as-you-go layout made `next` do double duty and needed a bounds
// guard during the fill phase; it read like an off-by-one waiting to
// happen even where it wasn't one.)
type SlowLog struct {
	mu        sync.Mutex
	threshold time.Duration
	buf       []SlowQuery // guarded by mu; len(buf) == capacity always
	size      int         // guarded by mu; occupied slots, <= len(buf)
	next      int         // guarded by mu; ring write position
	total     int64       // guarded by mu; lifetime slow-query count
}

// NewSlowLog returns a log keeping up to capacity entries (minimum 1) of
// queries that took threshold or longer. A negative threshold disables
// recording entirely; zero records everything (useful in tests).
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	if capacity < 1 {
		capacity = 1
	}
	return &SlowLog{threshold: threshold, buf: make([]SlowQuery, capacity)}
}

// Threshold returns the configured slowness bound.
func (l *SlowLog) Threshold() time.Duration { return l.threshold }

// Record stores e if it qualifies as slow and reports whether it did.
func (l *SlowLog) Record(e SlowQuery) bool {
	if l.threshold < 0 || time.Duration(e.ElapsedMicros)*time.Microsecond < l.threshold {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	l.buf[l.next] = e
	l.next = (l.next + 1) % len(l.buf)
	if l.size < len(l.buf) {
		l.size++
	}
	return true
}

// Total returns the lifetime number of recorded slow queries (including
// entries the ring has since overwritten).
func (l *SlowLog) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Snapshot returns the retained entries, newest first.
func (l *SlowLog) Snapshot() []SlowQuery {
	entries, _ := l.SnapshotWithTotal()
	return entries
}

// SnapshotWithTotal returns the retained entries (newest first) and the
// lifetime total from one critical section, so the pair is consistent:
// total - len(entries) is exactly the number of overwritten entries even
// while writers are racing (separate Snapshot/Total calls could observe
// writes in between).
func (l *SlowLog) SnapshotWithTotal() ([]SlowQuery, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowQuery, l.size)
	for i := 0; i < l.size; i++ {
		// Newest first: walk backwards from the last write.
		out[i] = l.buf[(l.next-1-i+len(l.buf))%len(l.buf)]
	}
	return out, l.total
}

// slowEntry assembles a SlowQuery from one finished request.
func slowEntry(req QueryRequest, resp *QueryResponse, now time.Time, traceID string) SlowQuery {
	return SlowQuery{
		Time:          now,
		Doc:           req.Doc,
		View:          req.View,
		Query:         req.Query,
		Engine:        resp.Engine,
		ElapsedMicros: resp.ElapsedMicros,
		Count:         resp.Count,
		Visited:       resp.Visited,
		CacheHit:      resp.CacheHit,
		TraceID:       traceID,
	}
}
