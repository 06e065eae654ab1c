// Package telemetry is a dependency-free metrics registry for the SMOQE
// serving layer: atomic counters, gauges and fixed-bucket latency
// histograms, with Prometheus text-format exposition (see
// WritePrometheus). It exists so the server can report the §7 evaluation
// numbers — per-query pruning rates, candidate-DAG sizes, latency
// distributions — without pulling a client library into the module.
//
// All metric operations (Add, Inc, Set, Observe) are safe for concurrent
// use and lock-free; registration and exposition take a registry lock.
// Looking up an already-registered metric (same name and labels) returns
// the existing instance, so hot paths may call Registry.Counter(...) per
// request, though caching the handle is cheaper.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is one metric instance's label set. Instances of the same family
// (same name) with different label values become separate series.
type Labels map[string]string

// DefBuckets are the default latency histogram bucket upper bounds, in
// seconds — the conventional Prometheus spread from 500µs to 10s, which
// brackets everything from a cache-hit HyPE run on the sample document to
// a cold rewrite of a large recursive view.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing metric.
type Counter struct {
	v  atomic.Int64
	fn func() int64 // if non-nil, the counter is read-only and computed at scrape time
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative n is ignored (counters are monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count. Inc and Add do not move a func-backed
// counter.
func (c *Counter) Value() int64 {
	if c.fn != nil {
		return c.fn()
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
	fn   func() float64 // if non-nil, the gauge is read-only and computed at scrape time
}

// Set sets the gauge. No-op on a func-backed gauge.
func (g *Gauge) Set(v float64) {
	if g.fn == nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds v (which may be negative). No-op on a func-backed gauge.
func (g *Gauge) Add(v float64) {
	if g.fn != nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution; Observe is lock-free.
type Histogram struct {
	bounds []float64 // sorted upper bounds; implicit +Inf after the last
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	count  atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Buckets are few (≤ ~15); linear scan beats binary search in practice.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// metricKind discriminates family types for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (labels, metric) instance of a family.
type series struct {
	labels Labels
	key    string // canonical sorted label rendering, for lookup and stable output
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every series of one metric name.
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64 // histograms only
	order   []string  // series keys in first-registration order
	series  map[string]*series
}

// Registry holds metric families and renders them in Prometheus text
// format. The zero value is not usable; call New.
type Registry struct {
	mu sync.Mutex
	// families is guarded by mu.
	families map[string]*family
	names    []string // guarded by mu; family names in first-registration order
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family returns (creating if needed) the family for name, panicking on a
// kind mismatch. Caller holds r.mu.
func (r *Registry) family(name, help string, kind metricKind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		r.names = append(r.names, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	return f
}

func (f *family) instance(labels Labels) *series {
	key := labelKey(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: cloneLabels(labels), key: key}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter returns the counter name{labels}, creating it on first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.family(name, help, kindCounter).instance(labels)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for a lifetime count another subsystem already keeps (plan-cache
// lookups, trace-store totals), so each fact is counted in one place. fn
// must never decrease. Re-registering replaces the callback.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.family(name, help, kindCounter).instance(labels)
	s.c = &Counter{fn: fn}
}

// Gauge returns the settable gauge name{labels}, creating it on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.family(name, help, kindGauge).instance(labels)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — for values another subsystem already tracks (cache sizes,
// uptime). Re-registering replaces the callback.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.family(name, help, kindGauge).instance(labels)
	s.g = &Gauge{fn: fn}
}

// Histogram returns the histogram name{labels} with the given bucket
// upper bounds (nil means DefBuckets), creating it on first use. Bounds
// are sorted, duplicates are collapsed, and NaN/±Inf entries are dropped;
// an implicit +Inf bucket is always present. Each bound b is the upper
// edge of a `le` (less-or-equal) bucket, so a sample exactly equal to b
// lands in b's bucket, never the next one up.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindHistogram)
	if f.buckets == nil {
		if buckets == nil {
			buckets = DefBuckets
		}
		f.buckets = normalizeBounds(buckets)
	}
	s := f.instance(labels)
	if s.h == nil {
		s.h = &Histogram{bounds: f.buckets, counts: make([]atomic.Int64, len(f.buckets)+1)}
	}
	return s.h
}

// normalizeBounds sorts bucket upper bounds and removes entries that
// would corrupt the series: duplicates (two buckets with the same `le`
// label are invalid exposition), ±Inf (the +Inf bucket is implicit and
// emitting it twice duplicates its series), and NaN (every comparison
// against NaN is false, so Observe would misroute samples).
func normalizeBounds(buckets []float64) []float64 {
	b := make([]float64, 0, len(buckets))
	for _, v := range buckets {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		b = append(b, v)
	}
	sort.Float64s(b)
	out := b[:0]
	for i, v := range b {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

func cloneLabels(l Labels) Labels {
	if len(l) == 0 {
		return nil
	}
	cp := make(Labels, len(l))
	for k, v := range l {
		cp[k] = v
	}
	return cp
}

// labelKey renders labels sorted by key: `a="1",b="2"`. Empty labels → "".
func labelKey(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l[k]))
		b.WriteByte('"')
	}
	return b.String()
}

// labelEscaper escapes label values per the Prometheus text format. A
// Replacer is safe for concurrent use and builds its lookup table once.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string { return labelEscaper.Replace(v) }
