package trace

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Retention reasons recorded on a stored trace: why the tail-based
// decision kept it.
const (
	// RetainForced: the request asked for its trace ("trace": true).
	RetainForced = "forced"
	// RetainError: some span failed (panic, injected fault, shed, breaker,
	// exceeded budget, timeout — anything surfaced through Span.Error).
	RetainError = "error"
	// RetainLatency: the root span met the latency threshold.
	RetainLatency = "latency"
	// RetainSampled: an unremarkable trace kept by time-paced sampling.
	RetainSampled = "sampled"
)

// Config tunes a Tracer. The zero value of each bound falls back to the
// default noted on the field.
type Config struct {
	// Capacity is how many retained request traces the store holds before
	// it evicts one, sampled traces first (default 256).
	Capacity int
	// SampleEvery paces the retention of traces with nothing remarkable
	// about them (no error, under the latency threshold, not forced): one
	// is kept when at least SampleEvery has passed between the end of the
	// last sampled root span and its own (default 1s; negative never
	// samples). The store then covers a fixed span of time however busy
	// the server is.
	SampleEvery time.Duration
	// LatencyThreshold retains every trace whose root span ran at least
	// this long; <= 0 disables latency-based retention.
	LatencyThreshold time.Duration
}

// What one trace records is bounded: spans beyond maxSpansPerTrace (the
// root aside) are counted as dropped, and attributes and events beyond
// their per-span bounds are dropped.
const (
	maxSpansPerTrace = 512
	maxAttrsPerSpan  = 16
	maxEventsPerSpan = 16
)

func (c Config) withDefaults() Config {
	if c.Capacity == 0 {
		c.Capacity = 256
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = time.Second
	}
	return c
}

// Tracer starts root spans and owns the store finished traces land in.
type Tracer struct {
	cfg   Config
	store *Store
	// epoch anchors nextSample, the earliest root-span end (monotonic
	// nanoseconds since epoch) at which an unremarkable trace is sampled.
	epoch      time.Time
	nextSample atomic.Int64
}

// New returns a tracer with the given configuration.
func New(cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	return &Tracer{cfg: cfg, store: NewStore(cfg.Capacity), epoch: time.Now()}
}

// sample decides whether an unremarkable trace whose root span ended at
// end is kept: when at least SampleEvery has passed since the end of the
// last sampled root span. Concurrent finishes race on one compare-and-swap,
// so each interval keeps one trace.
func (t *Tracer) sample(end time.Time) bool {
	if t.cfg.SampleEvery < 0 {
		return false
	}
	at := int64(end.Sub(t.epoch))
	for {
		next := t.nextSample.Load()
		if at < next {
			return false
		}
		if t.nextSample.CompareAndSwap(next, at+int64(t.cfg.SampleEvery)) {
			return true
		}
	}
}

// Store returns the tracer's trace store (the /traces backing).
func (t *Tracer) Store() *Store { return t.store }

// StartRoot begins a new trace with its root span and returns a context
// carrying it. A non-zero remote parent (from an incoming traceparent
// header) is adopted: the new trace reuses the caller's trace ID and
// links the root span under the caller's span. Nil tracers start nothing.
func (t *Tracer) StartRoot(ctx context.Context, name string, remote Traceparent) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	tr := &activeTrace{tracer: t, start: time.Now(), rootName: name, open: 1}
	if remote.TraceID.IsZero() {
		tr.id = newTraceID()
	} else {
		tr.id = remote.TraceID
	}
	s := &Span{
		tr:     tr,
		id:     newSpanID(),
		parent: remote.SpanID,
		root:   true,
		name:   name,
		start:  tr.start,
	}
	return context.WithValue(ctx, ctxKey{}, s), s
}

// activeTrace accumulates the finished spans of one in-flight trace.
// Spans on concurrent goroutines (shard workers) start and End against the
// same trace, hence the lock. The trace completes when its root and every
// span started under it have ended, in any order.
type activeTrace struct {
	tracer   *Tracer
	id       TraceID
	start    time.Time
	rootName string

	mu      sync.Mutex
	spans   []SpanData    // guarded by mu; finished spans, End order
	dropped int           // guarded by mu; spans lost to maxSpansPerTrace
	open    int           // guarded by mu; started spans not yet ended, the root included: 0 once complete
	rootDur time.Duration // guarded by mu; the root span's duration, set by its End
	forced  bool          // guarded by mu; unconditional retention requested
	failed  bool          // guarded by mu; some span ended with an error
}

// join counts a span starting under the trace as open, unless the trace
// has completed: such a span has no trace to join.
func (tr *activeTrace) join() bool {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.open == 0 {
		return false
	}
	tr.open++
	return true
}

// record publishes one ended span's snapshot and reports whether it
// completed the trace. The root span is always recorded (the trace is
// useless without it); other spans beyond the bound are counted as
// dropped.
func (tr *activeTrace) record(s *Span, d time.Duration) (completed bool) {
	data := SpanData{
		ID:             s.id.String(),
		Name:           s.name,
		StartMicros:    s.start.Sub(tr.start).Microseconds(),
		DurationMicros: d.Microseconds(),
		Attrs:          s.attrs,
		Events:         s.events,
		Error:          s.errMsg,
	}
	if !s.parent.IsZero() {
		data.Parent = s.parent.String()
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if s.errMsg != "" {
		tr.failed = true
	}
	if s.root {
		tr.rootDur = d
	}
	if !s.root && len(tr.spans) >= maxSpansPerTrace {
		tr.dropped++
	} else {
		tr.spans = append(tr.spans, data)
	}
	tr.open--
	return tr.open == 0
}

// force requests unconditional retention.
func (tr *activeTrace) force() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.forced = true
}

// finish runs the tail-based retention decision, on the root span's
// duration, once the trace has completed; it submits kept traces to the
// store and accounts the rest.
func (tr *activeTrace) finish() {
	t := tr.tracer
	tr.mu.Lock()
	spans := tr.spans
	dropped := tr.dropped
	forced := tr.forced
	failed := tr.failed
	rootDur := tr.rootDur
	tr.mu.Unlock()

	reason := ""
	switch {
	case forced:
		reason = RetainForced
	case failed:
		reason = RetainError
	case t.cfg.LatencyThreshold > 0 && rootDur >= t.cfg.LatencyThreshold:
		reason = RetainLatency
	case t.sample(tr.start.Add(rootDur)):
		reason = RetainSampled
	}
	if reason != "" {
		sort.SliceStable(spans, func(i, j int) bool {
			return spans[i].StartMicros < spans[j].StartMicros
		})
		status := "ok"
		if failed {
			status = "error"
		}
		t.store.add(&Data{
			TraceID:        tr.id.String(),
			Root:           tr.rootName,
			Start:          tr.start,
			DurationMicros: rootDur.Microseconds(),
			Status:         status,
			Retained:       reason,
			DroppedSpans:   dropped,
			Spans:          spans,
		})
	}
	t.store.account(len(spans), reason != "")
}

// SpanData is one finished span as stored and served: offsets and
// durations in microseconds relative to the trace start.
type SpanData struct {
	ID             string  `json:"id"`
	Parent         string  `json:"parent,omitempty"`
	Name           string  `json:"name"`
	StartMicros    int64   `json:"start_us"`
	DurationMicros int64   `json:"duration_us"`
	Attrs          []Attr  `json:"attrs,omitempty"`
	Events         []Event `json:"events,omitempty"`
	Error          string  `json:"error,omitempty"`
}

// Data is one retained trace: the root summary plus every span, sorted by
// start offset (the root first).
type Data struct {
	TraceID        string     `json:"trace_id"`
	Root           string     `json:"root"`
	Start          time.Time  `json:"start"`
	DurationMicros int64      `json:"duration_us"`
	Status         string     `json:"status"`
	Retained       string     `json:"retained"`
	DroppedSpans   int        `json:"dropped_spans,omitempty"`
	Spans          []SpanData `json:"spans"`
}
