// Package trace is a dependency-free span tracer for the serving stack:
// 128-bit trace IDs, 64-bit span IDs, parent links, monotonic durations,
// bounded per-span attributes and events, and W3C traceparent propagation
// — small enough to sit on the request path of every query.
//
// A request's root span is started by the HTTP middleware via
// Tracer.StartRoot; every layer below derives child spans with Start,
// which reads the current span from the context. When tracing is disabled
// (nil Tracer) or the context carries no trace, Start returns a nil *Span
// whose methods are all no-ops, so instrumented code pays one context
// lookup and nothing else.
//
// Finished traces are submitted to a bounded Store with tail-based
// retention: the decision to keep a trace is made when its root span ends,
// so error traces and slow traces are always kept no matter how the
// request started out (see Tracer), and a full store evicts sampled traces
// before them (see Store).
package trace

import (
	"context"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"strconv"
	"time"
)

// TraceID identifies one request trace (128 bits, hex-rendered).
type TraceID [16]byte

// String renders the ID as 32 lowercase hex digits (the W3C form).
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is the invalid all-zero ID.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// ParseTraceID parses 32 hex digits; the all-zero ID is invalid.
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	if len(s) != 32 {
		return id, fmt.Errorf("trace: id %q: want 32 hex digits", s)
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, fmt.Errorf("trace: id %q: %w", s, err)
	}
	if id.IsZero() {
		return id, fmt.Errorf("trace: id %q: all-zero", s)
	}
	return id, nil
}

// SpanID identifies one span within a trace (64 bits, hex-rendered).
type SpanID [8]byte

// String renders the ID as 16 lowercase hex digits (the W3C form).
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is the invalid all-zero ID.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// newTraceID returns a random non-zero trace ID. math/rand/v2's global
// generator is goroutine-safe and per-request uniqueness (not
// unpredictability) is all an ID needs.
func newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		putUint64(id[:8], rand.Uint64())
		putUint64(id[8:], rand.Uint64())
	}
	return id
}

// newSpanID returns a random non-zero span ID.
func newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		putUint64(id[:], rand.Uint64())
	}
	return id
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}

// Attr is one key/value annotation on a span or event.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Event is a point-in-time annotation on a span (a cache outcome, a
// failpoint fire, a recovered panic), stamped relative to the trace start.
type Event struct {
	Name     string `json:"name"`
	AtMicros int64  `json:"at_us"`
	Attrs    []Attr `json:"attrs,omitempty"`
}

// Span is one timed operation inside a trace. A span is owned by the
// goroutine that started it until End; distinct spans of one trace may
// live on concurrent goroutines (shard workers), because End publishes the
// snapshot under the trace's lock. All methods are no-ops on a nil
// receiver — the disabled-tracing fast path.
type Span struct {
	tr     *activeTrace
	id     SpanID
	parent SpanID
	root   bool
	name   string
	start  time.Time
	attrs  []Attr
	events []Event
	errMsg string
	ended  bool
}

// ID returns the span's ID (zero for nil spans).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// TraceID returns the owning trace's ID (zero for nil spans).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.tr.id
}

// Attr annotates the span; attrs beyond the tracer's bound are dropped.
func (s *Span) Attr(key, value string) {
	if s == nil || s.ended || len(s.attrs) >= maxAttrsPerSpan {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// AttrInt is Attr for integer values. A nil span formats nothing.
func (s *Span) AttrInt(key string, value int64) {
	if s == nil {
		return
	}
	s.Attr(key, strconv.FormatInt(value, 10))
}

// Event records a named point-in-time annotation with optional key/value
// attribute pairs; events beyond the tracer's bound are dropped.
func (s *Span) Event(name string, kv ...string) {
	if s == nil || s.ended || len(s.events) >= maxEventsPerSpan {
		return
	}
	ev := Event{Name: name, AtMicros: time.Since(s.tr.start).Microseconds()}
	for i := 0; i+1 < len(kv); i += 2 {
		ev.Attrs = append(ev.Attrs, Attr{Key: kv[i], Value: kv[i+1]})
	}
	s.events = append(s.events, ev)
}

// Error marks the span failed. The first error wins; a failed span makes
// the whole trace eligible for unconditional retention.
func (s *Span) Error(err error) {
	if s == nil || s.ended || err == nil || s.errMsg != "" {
		return
	}
	s.errMsg = err.Error()
}

// Force marks the owning trace for unconditional retention (the
// `"trace": true` inline request option).
func (s *Span) Force() {
	if s == nil {
		return
	}
	s.tr.force()
}

// End finishes the span: its snapshot is published into the owning trace,
// and the last of the root and the spans under it to end finishes the
// trace (retention decision + store submission). End is idempotent; a nil
// span ends for free.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	if s.tr.record(s, time.Since(s.start)) {
		s.tr.finish()
	}
}

// ctxKey carries the current span in a context.
type ctxKey struct{}

// FromContext returns the context's current span, or nil when the request
// is not being traced (nil contexts included — evaluation entry points
// accept nil for "no cancellation").
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Start begins a child of the context's current span and returns a
// context carrying it. When the context holds no span (tracing disabled,
// a nil context, or a background caller), or its trace has completed, it
// returns the context unchanged and a nil span — every method of which is
// a no-op.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil || !parent.tr.join() {
		return ctx, nil
	}
	s := &Span{
		tr:     parent.tr,
		id:     newSpanID(),
		parent: parent.id,
		name:   name,
		start:  time.Now(),
	}
	return context.WithValue(ctx, ctxKey{}, s), s
}
