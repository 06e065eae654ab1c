// Package a is a metriccheck fixture exercising registrations.
package a

import "telemetry"

func register(r *telemetry.Registry, dynamic string) {
	r.Counter("app_requests_total", "Requests.", nil)
	r.Counter("app_requests_total", "Requests again.", nil) // want `metric "app_requests_total" already registered at .*a\.go:7`
	r.Gauge("2bad_name", "Bad.", nil)                       // want `invalid metric name "2bad_name": want \[a-zA-Z_:\]\[a-zA-Z0-9_:\]\*`
	r.Counter(dynamic, "Computed.", nil)                    // want `metric name must be a constant string, not a computed value`
	r.CounterFunc("app_requests_total", "Read.", nil, nil)  // want `metric "app_requests_total" already registered at .*a\.go:7`
	r.CounterFunc("app-hits", "Bad.", nil, nil)             // want `invalid metric name "app-hits": want \[a-zA-Z_:\]\[a-zA-Z0-9_:\]\*`
	r.Histogram("app_latency_seconds", "Latency.",
		[]float64{0.1, 0.05, 1}, nil) // want `histogram buckets must be strictly increasing \(0\.05 after 0\.1\)`
	r.Histogram("app_wait_seconds", "Wait.", []float64{0.1, 0.5, 1}, nil)
	//lint:ignore metriccheck re-registration is deliberate in this test helper
	r.Counter("app_wait_seconds", "Alias.", nil)
}
