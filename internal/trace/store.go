package trace

import (
	"slices"
	"sort"
	"sync"
)

// Store is a mutex-guarded bounded collection of retained traces, one
// entry per finished request, plus the lifetime retention counters behind
// GET /traces and the smoqe_trace_* metrics. Requests that share a trace
// ID (a caller propagating one W3C trace across several calls) are stored
// side by side. Once full, the store evicts its oldest sampled trace, and
// only when it holds none, its oldest trace kept for a cause (forced,
// error or latency): unremarkable traffic cannot push out the remarkable.
// Stored *Data values are immutable after submission, so snapshots hand
// out shared pointers. Safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	capacity int
	order    []*Data // guarded by mu; one entry per request, oldest first
	retained int64   // guarded by mu; lifetime traces kept
	dropped  int64   // guarded by mu; lifetime traces not kept
	spans    int64   // guarded by mu; lifetime spans on finished traces
}

// NewStore returns a store holding at most capacity traces (minimum 1).
func NewStore(capacity int) *Store {
	if capacity < 1 {
		capacity = 1
	}
	return &Store{capacity: capacity}
}

// add submits one retained request trace. Over capacity it evicts the
// oldest sampled entry, or the oldest entry when none is sampled.
func (s *Store) add(d *Data) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.order = append(s.order, d)
	if len(s.order) <= s.capacity {
		return
	}
	victim := max(0, slices.IndexFunc(s.order, func(d *Data) bool { return d.Retained == RetainSampled }))
	s.order = slices.Delete(s.order, victim, victim+1)
}

// account records one finished trace in the lifetime counters (kept or
// not — add only sees the kept ones).
func (s *Store) account(spans int, retained bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans += int64(spans)
	if retained {
		s.retained++
	} else {
		s.dropped++
	}
}

// Get returns the stored trace with the given hex ID. When several
// retained requests carry the ID, they are merged into one trace: spans
// of every request, rebased onto the earliest start (see merge).
func (s *Store) Get(id string) (*Data, bool) {
	tid, err := ParseTraceID(id)
	if err != nil {
		return nil, false
	}
	want := tid.String()
	s.mu.Lock()
	var parts []*Data
	for _, d := range s.order {
		if d.TraceID == want {
			parts = append(parts, d)
		}
	}
	s.mu.Unlock()
	if len(parts) == 0 {
		return nil, false
	}
	return merge(parts), true
}

// retainRank orders the retention reasons from strongest to weakest.
var retainRank = []string{RetainForced, RetainError, RetainLatency, RetainSampled}

// merge combines the stored requests of one trace ID (oldest first) into
// one Data: it starts at the earliest request and ends with the latest,
// every span and event offset is rebased onto that start, it failed if any
// request failed, and it reports the strongest retention reason among the
// requests. A single request is returned as stored.
func merge(parts []*Data) *Data {
	if len(parts) == 1 {
		return parts[0]
	}
	start := parts[0].Start
	for _, d := range parts {
		if d.Start.Before(start) {
			start = d.Start
		}
	}
	out := &Data{TraceID: parts[0].TraceID, Root: parts[0].Root, Start: start, Status: "ok", Retained: RetainSampled}
	for _, d := range parts {
		shift := d.Start.Sub(start).Microseconds()
		out.DurationMicros = max(out.DurationMicros, shift+d.DurationMicros)
		out.DroppedSpans += d.DroppedSpans
		if d.Status != "ok" {
			out.Status = d.Status
		}
		if slices.Index(retainRank, d.Retained) < slices.Index(retainRank, out.Retained) {
			out.Retained = d.Retained
		}
		for _, sp := range d.Spans {
			sp.StartMicros += shift
			sp.Events = slices.Clone(sp.Events)
			for i := range sp.Events {
				sp.Events[i].AtMicros += shift
			}
			out.Spans = append(out.Spans, sp)
		}
	}
	sort.SliceStable(out.Spans, func(i, j int) bool {
		return out.Spans[i].StartMicros < out.Spans[j].StartMicros
	})
	return out
}

// Snapshot returns the retained request traces, newest first.
func (s *Store) Snapshot() []*Data {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Data, 0, len(s.order))
	for i := len(s.order) - 1; i >= 0; i-- {
		out = append(out, s.order[i])
	}
	return out
}

// Len returns how many request traces the store currently holds.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

// Totals returns the lifetime counters: traces retained, traces dropped
// by the tail-based decision, and spans recorded on finished traces.
func (s *Store) Totals() (retained, dropped, spans int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retained, s.dropped, s.spans
}
