package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smoqe/internal/hospital"
	api "smoqe/internal/server"
)

// captureStdout runs fn with os.Stdout redirected to a file and returns
// the lines it printed.
func captureStdout(t *testing.T, fn func() error) ([]string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	ferr := fn()
	os.Stdout = old
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimRight(string(out), "\n"), "\n"), ferr
}

// TestCorpusAndTraceAgainstServer runs `smoqe corpus` and `smoqe trace`
// against a live server: a collection of three good documents and one
// unparsable one, and one forced trace.
func TestCorpusAndTraceAgainstServer(t *testing.T) {
	dir := t.TempDir()
	ward := filepath.Join(dir, "ward")
	if err := os.Mkdir(ward, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, xml := range map[string]string{
		"a.xml":   `<a><b>one</b></a>`,
		"b.xml":   `<a><b>two</b><b>three</b></a>`,
		"c.xml":   `<a><c>other</c></a>`,
		"bad.xml": `<a><unclosed`,
	} {
		if err := os.WriteFile(filepath.Join(ward, name), []byte(xml), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := api.New(api.Config{TraceSampleEvery: -1, TraceLatencyRetention: -1})
	if err := s.OpenCorpus(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.CloseCorpus)
	if _, err := s.Registry().RegisterDocument("hospital", hospital.SampleDocument()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// One forced trace; the store holds it once its root span ends.
	body, _ := json.Marshal(api.QueryRequest{Doc: "hospital", Query: "//diagnosis", Trace: true})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	traceID := resp.Header.Get("X-Smoqe-Trace-Id")
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, ok := s.Traces().Get(traceID); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never reached the store", traceID)
		}
	}

	corpus := func(args ...string) []string {
		t.Helper()
		lines, err := captureStdout(t, func() error { return cmdCorpus(append(args, "-server", ts.URL)) })
		if err != nil {
			t.Fatalf("smoqe corpus %s: %v", strings.Join(args, " "), err)
		}
		return lines
	}
	fields := func(line string) string { return strings.Join(strings.Fields(line), " ") }
	check := func(cmd string, got []string, want ...string) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("smoqe %s printed %d lines, want %d:\n%s", cmd, len(got), len(want), strings.Join(got, "\n"))
			return
		}
		for i := range want {
			if !strings.HasPrefix(fields(got[i]), want[i]) {
				t.Errorf("smoqe %s line %d = %q, want it to start %q", cmd, i, fields(got[i]), want[i])
			}
		}
	}

	summary := "ward gen 1 3 indexed 0 pending 1 quarantined degraded"
	check("corpus ls", corpus("ls"), summary)
	check("corpus ls -name", corpus("ls", "-name", "ward"), summary,
		"a.xml indexed 2 elements",
		"b.xml indexed 3 elements",
		"bad.xml quarantined (parse: ",
		"c.xml indexed 2 elements")
	check("corpus query", corpus("query", "-name", "ward", "-query", "b", "-ids"),
		"collection ward (gen 1, degraded): 3 indexed, 1 skipped by prefilter",
		"a.xml 1 node(s) [1]",
		"b.xml 2 node(s) [1 3]",
		"3 node(s) total")
	// Before the reindex: its trace records bad.xml's failed parse, and
	// error retention keeps it.
	traces, err := captureStdout(t, func() error { return cmdTrace([]string{"-server", ts.URL}) })
	if err != nil {
		t.Fatalf("smoqe trace: %v", err)
	}
	check("trace", traces, "retained 1 traces", traceID+" http ok retained=forced")
	check("corpus reindex", corpus("reindex", "-name", "ward"),
		"ward gen 2 3 indexed 0 pending 1 quarantined degraded")

	if _, err := captureStdout(t, func() error {
		return cmdCorpus([]string{"reindex", "-name", "nowhere", "-server", ts.URL})
	}); err == nil || !strings.Contains(err.Error(), `unknown collection "nowhere"`) {
		t.Errorf("reindex of an unknown collection: err = %v", err)
	}
}
