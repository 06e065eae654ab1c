package server

import (
	"context"
	"testing"

	"smoqe"
	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/trace"
)

// BenchmarkColdPipeline measures what every request would cost without the
// serving layer: parse → rewrite over σ0 → compile → new engine → eval,
// from scratch each time. This is the per-request O(|Q|²|σ||D_V|²) rewrite
// the plan cache exists to amortize away.
func BenchmarkColdPipeline(b *testing.B) {
	v := hospital.Sigma0()
	doc := datagen.Generate(datagen.DefaultConfig(200))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := smoqe.ParseQuery(hospital.QExample11)
		if err != nil {
			b.Fatal(err)
		}
		nodes, err := smoqe.AnswerOnView(v, q, doc)
		if err != nil {
			b.Fatal(err)
		}
		_ = nodes
	}
}

// BenchmarkCachedPrepared measures the same request served by the server
// with a warm plan cache: one cache lookup plus one pooled HyPE pass.
func BenchmarkCachedPrepared(b *testing.B) {
	s := New(Config{CacheSize: 16})
	doc := datagen.Generate(datagen.DefaultConfig(200))
	if _, err := s.Registry().RegisterDocument("d", doc); err != nil {
		b.Fatal(err)
	}
	if _, err := s.RegisterView("sigma0", hospital.Sigma0()); err != nil {
		b.Fatal(err)
	}
	req := QueryRequest{Doc: "d", View: "sigma0", Query: hospital.QExample11}
	if _, err := s.Query(context.Background(), req); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCachedPreparedTracingOff is BenchmarkCachedPrepared with
// tracing disabled outright (negative TraceStoreSize). BenchmarkCachedPrepared
// itself runs with the default tracer allocated but no root span started —
// the hot-path cost of tracing for untraced callers is one nil context
// lookup per instrumented layer. CI's tracing bench-smoke runs both; the
// two must stay within noise of each other (see docs/EXPERIMENTS.md).
func BenchmarkCachedPreparedTracingOff(b *testing.B) {
	s := New(Config{CacheSize: 16, TraceStoreSize: -1})
	doc := datagen.Generate(datagen.DefaultConfig(200))
	if _, err := s.Registry().RegisterDocument("d", doc); err != nil {
		b.Fatal(err)
	}
	if _, err := s.RegisterView("sigma0", hospital.Sigma0()); err != nil {
		b.Fatal(err)
	}
	req := QueryRequest{Doc: "d", View: "sigma0", Query: hospital.QExample11}
	if _, err := s.Query(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCachedPreparedTraced measures a fully traced request: a root
// span per iteration, child spans recorded at every layer, the tail-based
// retention decision run at the end (sampling disabled, so nothing is
// stored).
func BenchmarkCachedPreparedTraced(b *testing.B) {
	s := New(Config{CacheSize: 16, TraceSampleEvery: -1})
	doc := datagen.Generate(datagen.DefaultConfig(200))
	if _, err := s.Registry().RegisterDocument("d", doc); err != nil {
		b.Fatal(err)
	}
	if _, err := s.RegisterView("sigma0", hospital.Sigma0()); err != nil {
		b.Fatal(err)
	}
	req := QueryRequest{Doc: "d", View: "sigma0", Query: hospital.QExample11}
	if _, err := s.Query(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, sp := s.tracer.StartRoot(context.Background(), "bench", trace.Traceparent{})
		if _, err := s.Query(ctx, req); err != nil {
			b.Fatal(err)
		}
		sp.End()
	}
}

// BenchmarkCachedPreparedParallel is BenchmarkCachedPrepared with
// concurrent clients — the engine pool's raison d'être.
func BenchmarkCachedPreparedParallel(b *testing.B) {
	s := New(Config{CacheSize: 16})
	doc := datagen.Generate(datagen.DefaultConfig(200))
	if _, err := s.Registry().RegisterDocument("d", doc); err != nil {
		b.Fatal(err)
	}
	if _, err := s.RegisterView("sigma0", hospital.Sigma0()); err != nil {
		b.Fatal(err)
	}
	req := QueryRequest{Doc: "d", View: "sigma0", Query: hospital.QExample11}
	if _, err := s.Query(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := s.Query(context.Background(), req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
