package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"smoqe/internal/failpoint"
	"smoqe/internal/hospital"
)

// waitForSlow polls GET /slow until it lists n entries: an entry appears
// when its request's root span ends, which may trail the response.
func waitForSlow(t *testing.T, ts *httptest.Server, n int) slowResponse {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var out slowResponse
		getJSON(t, ts, "/slow", &out)
		if len(out.Entries) >= n {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET /slow lists %d entries, want %d: %+v", len(out.Entries), n, out)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSlowLogThreshold: an evaluation exactly at the threshold is slow,
// one below it is not, and a negative threshold disables the count.
func TestSlowLogThreshold(t *testing.T) {
	s := New(Config{TraceLatencyRetention: time.Millisecond})
	if s.isSlow(999 * time.Microsecond) {
		t.Error("999us counted as slow against a 1ms threshold")
	}
	if !s.isSlow(time.Millisecond) {
		t.Error("1ms (exactly the threshold) not slow; the boundary must be inclusive")
	}
	if off := New(Config{TraceLatencyRetention: -1}); off.isSlow(1 << 40) {
		t.Error("a negative threshold still counts slow queries")
	}
}

// TestSlowEntrySurvivesSampledTraffic: a slow request's /slow entry
// outlives TraceStoreSize newer sampled requests, because the store evicts
// sampled traces first.
func TestSlowEntrySurvivesSampledTraffic(t *testing.T) {
	withProcs(t, 2)
	const storeSize = 4
	s := newLoadedServer(t, Config{
		TraceStoreSize:        storeSize,
		TraceSampleEvery:      time.Nanosecond,
		TraceLatencyRetention: 200 * time.Millisecond,
	}, 2000)
	if _, err := s.Registry().RegisterDocument("hospital", hospital.SampleDocument()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The merge of a shard-parallel run sleeps past the threshold.
	if err := failpoint.Enable(failpoint.SiteHypeMerge, "sleep:250ms"); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts, "/query", QueryRequest{Doc: "gen", Query: "//diagnosis", Parallelism: 2})
	failpoint.DisableAll()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slow POST /query: %d %s", resp.StatusCode, body)
	}
	slowID := resp.Header.Get("X-Smoqe-Trace-Id")
	waitForTrace(t, s, slowID)

	for i := 0; i < storeSize; i++ {
		resp, body := postJSON(t, ts, "/query", QueryRequest{Doc: "hospital", Query: "//pname"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /query: %d %s", resp.StatusCode, body)
		}
		waitForTrace(t, s, resp.Header.Get("X-Smoqe-Trace-Id"))
	}
	out := waitForSlow(t, ts, 1)
	if out.Total != 1 || len(out.Entries) != 1 || out.Entries[0].TraceID != slowID || out.Entries[0].Doc != "gen" {
		t.Fatalf("GET /slow after %d sampled requests = %+v, want the slow request %s alone", storeSize, out, slowID)
	}
	if got := s.Traces().Len(); got != storeSize {
		t.Errorf("store holds %d traces, want %d", got, storeSize)
	}
}

// TestSlowWithTracingDisabled: without a trace store /slow still reports
// the threshold and the lifetime count, with no entries.
func TestSlowWithTracingDisabled(t *testing.T) {
	s := New(Config{TraceStoreSize: -1, TraceLatencyRetention: time.Microsecond})
	if _, err := s.Registry().RegisterDocument("hospital", hospital.SampleDocument()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if resp, body := postJSON(t, ts, "/query", QueryRequest{Doc: "hospital", Query: "//diagnosis"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query: %d %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(raw["entries"])); got != "[]" {
		t.Errorf("entries = %s, want []", got)
	}
	if string(raw["threshold_us"]) != "1" || string(raw["total"]) != "1" {
		t.Errorf("threshold_us = %s, total = %s; want 1 and 1", raw["threshold_us"], raw["total"])
	}
}
