package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := New()
	c := r.Counter("reqs_total", "requests", nil)
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Same name+labels returns the same instance.
	if r.Counter("reqs_total", "requests", nil) != c {
		t.Error("re-lookup returned a different counter")
	}
	// Different labels make a distinct series.
	c2 := r.Counter("reqs_total", "requests", Labels{"view": "v"})
	if c2 == c {
		t.Error("labeled series must be distinct")
	}
}

func TestCounterFunc(t *testing.T) {
	r := New()
	n := int64(7)
	r.CounterFunc("hits_total", "hits", nil, func() int64 { return n })
	n = 9
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# TYPE hits_total counter\nhits_total 9\n") {
		t.Errorf("func counter missing or stale:\n%s", out.String())
	}
}

func TestGauge(t *testing.T) {
	r := New()
	g := r.Gauge("depth", "", nil)
	g.Set(3.5)
	g.Add(-1.5)
	if got := g.Value(); got != 2 {
		t.Errorf("gauge = %v, want 2", got)
	}
	r.GaugeFunc("uptime", "", nil, func() float64 { return 42 })
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "uptime 42\n") {
		t.Errorf("func gauge missing:\n%s", out.String())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat", "latency", []float64{1, 2, 4}, nil)
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-106) > 1e-9 {
		t.Errorf("sum = %v, want 106", h.Sum())
	}
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	// Cumulative: ≤1 holds {0.5, 1}, ≤2 adds 1.5, ≤4 adds 3, +Inf adds 100.
	for _, want := range []string{
		`lat_bucket{le="1"} 2`,
		`lat_bucket{le="2"} 3`,
		`lat_bucket{le="4"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		`lat_sum 106`,
		`lat_count 5`,
		"# TYPE lat histogram",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

// TestHistogramBucketBoundary: Prometheus buckets are `le` —
// less-OR-EQUAL — so a sample exactly on an upper bound must count
// toward that bound's bucket, not the next one up. This pins the
// non-cumulative per-bucket counts, where an off-by-one at the edge
// would be visible before cumulation papers over it.
func TestHistogramBucketBoundary(t *testing.T) {
	r := New()
	bounds := []float64{0.001, 0.01, 0.1}
	h := r.Histogram("lat", "", bounds, nil)
	for _, v := range bounds {
		h.Observe(v)
	}
	for i := range bounds {
		if got := h.counts[i].Load(); got != 1 {
			t.Errorf("bucket le=%v holds %d samples, want exactly 1 (le is inclusive)", bounds[i], got)
		}
	}
	if got := h.counts[len(bounds)].Load(); got != 0 {
		t.Errorf("+Inf bucket holds %d samples, want 0: no observation exceeded the largest bound", got)
	}

	// The same contract through the exposition: cumulative counts step by
	// one at each bound because each sample joined its own bucket.
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`lat_bucket{le="0.001"} 1`,
		`lat_bucket{le="0.01"} 2`,
		`lat_bucket{le="0.1"} 3`,
		`lat_bucket{le="+Inf"} 3`,
	} {
		if !strings.Contains(out.String(), want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out.String())
		}
	}

	// Just past a bound belongs to the next bucket up.
	h.Observe(math.Nextafter(0.01, 1))
	if got := h.counts[2].Load(); got != 2 {
		t.Errorf("sample just above 0.01 landed wrong: le=0.1 bucket = %d, want 2", got)
	}
}

// TestHistogramBoundsNormalized: duplicate bounds would emit two series
// with the same le label, and NaN/±Inf bounds would misroute samples or
// duplicate the implicit +Inf bucket. Registration must scrub all three.
func TestHistogramBoundsNormalized(t *testing.T) {
	r := New()
	h := r.Histogram("lat", "", []float64{2, 1, 2, math.NaN(), math.Inf(1), 1, math.Inf(-1)}, nil)
	if want := []float64{1, 2}; len(h.bounds) != len(want) || h.bounds[0] != want[0] || h.bounds[1] != want[1] {
		t.Fatalf("bounds = %v, want %v", h.bounds, want)
	}
	for _, v := range []float64{0.5, 1, 2, 3} {
		h.Observe(v)
	}
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		`lat_bucket{le="1"} 2`,
		`lat_bucket{le="2"} 3`,
		`lat_bucket{le="+Inf"} 4`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	// Every le value appears exactly once: no duplicate series.
	for _, le := range []string{`le="1"`, `le="2"`, `le="+Inf"`} {
		if got := strings.Count(text, le); got != 1 {
			t.Errorf("label %s appears %d times, want 1:\n%s", le, got, text)
		}
	}
	if strings.Contains(text, "NaN") {
		t.Errorf("NaN leaked into exposition:\n%s", text)
	}
}

func TestLabelsSortedAndEscaped(t *testing.T) {
	r := New()
	r.Counter("m", "", Labels{"b": "2", "a": `x"y\z`}).Inc()
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	want := `m{a="x\"y\\z",b="2"} 1`
	if !strings.Contains(out.String(), want+"\n") {
		t.Errorf("want %q in:\n%s", want, out.String())
	}
}

func TestExpositionFormat(t *testing.T) {
	r := New()
	r.Counter("a_total", "first metric", nil).Add(7)
	r.Gauge("b", "", Labels{"k": "v"}).Set(1.25)
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	want := "# HELP a_total first metric\n# TYPE a_total counter\na_total 7\n# TYPE b gauge\nb{k=\"v\"} 1.25\n"
	if out.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", out.String(), want)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("m", "", nil)
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("m", "", nil)
}

// TestConcurrentUpdates exercises every metric type from many goroutines;
// run with -race in CI.
func TestConcurrentUpdates(t *testing.T) {
	r := New()
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("c", "", nil).Inc()
				r.Gauge("g", "", nil).Add(1)
				r.Histogram("h", "", []float64{0.5}, Labels{"w": "x"}).Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c", "", nil).Value(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if got := r.Gauge("g", "", nil).Value(); got != workers*iters {
		t.Errorf("gauge = %v, want %d", got, workers*iters)
	}
	h := r.Histogram("h", "", nil, Labels{"w": "x"})
	if h.Count() != workers*iters {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*iters)
	}
	if math.Abs(h.Sum()-0.25*workers*iters) > 1e-6 {
		t.Errorf("histogram sum = %v, want %v", h.Sum(), 0.25*workers*iters)
	}
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
}
