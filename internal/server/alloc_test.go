package server

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"smoqe/internal/hospital"
)

// TestCachedQueryAllocations is the allocation guard of a cached query:
// once its plan is cached, decoding the σ0 Example 1.1 request over the
// sample document, Server.Query and encoding the response allocate a
// small, fixed number of objects and bytes. Per-request work that depends
// on nothing per request — a strings.Replacer built per metric label, say
// — shows up here first.
func TestCachedQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const maxObjects = 32
	const maxBytes = 4 << 10
	s := New(Config{})
	if _, err := s.Registry().RegisterDocument("hospital", hospital.SampleDocument()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterView("sigma0", hospital.Sigma0()); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(QueryRequest{Doc: "hospital", View: "sigma0", Query: hospital.QExample11})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var out bytes.Buffer
	run := func() {
		var req QueryRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		resp, err := s.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		out.Reset()
		if err := json.NewEncoder(&out).Encode(resp); err != nil {
			t.Fatal(err)
		}
	}
	run() // build and cache the plan, warm the engine pool
	objs := testing.AllocsPerRun(50, run)

	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs

	t.Logf("%.0f objects and %d bytes per cached query", objs, perRun)
	if objs > maxObjects {
		t.Errorf("%.0f objects per cached query, want at most %d", objs, maxObjects)
	}
	if perRun > maxBytes {
		t.Errorf("%d bytes per cached query, want at most %d", perRun, maxBytes)
	}
}
