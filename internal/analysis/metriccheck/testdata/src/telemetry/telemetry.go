// Package telemetry is a registry stub for metriccheck tests.
package telemetry

// Labels tag a metric instance.
type Labels map[string]string

// Counter is a monotone metric.
type Counter struct{}

// Gauge is a point-in-time metric.
type Gauge struct{}

// Histogram is a bucketed distribution metric.
type Histogram struct{}

// Registry holds metric families.
type Registry struct{}

// Counter registers or fetches a counter.
func (r *Registry) Counter(name, help string, labels Labels) *Counter { return nil }

// CounterFunc registers a computed counter.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() int64) {}

// Gauge registers or fetches a gauge.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge { return nil }

// GaugeFunc registers a computed gauge.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {}

// Histogram registers or fetches a histogram.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	return nil
}
