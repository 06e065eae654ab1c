package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"smoqe/internal/hospital"
)

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	return resp
}

func TestHTTPEndToEnd(t *testing.T) {
	s := New(Config{CacheSize: 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Register the hospital document and the σ0 view over HTTP.
	resp, body := postJSON(t, ts, "/docs", map[string]string{
		"name": "hospital", "xml": hospital.SampleXML,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /docs: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts, "/views", map[string]string{
		"name":       "sigma0",
		"spec":       hospital.Sigma0Source,
		"source_dtd": hospital.DocDTDSource,
		"target_dtd": hospital.ViewDTDSource,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /views: %d %s", resp.StatusCode, body)
	}

	// Listings see them.
	var docs []docInfo
	getJSON(t, ts, "/docs", &docs)
	if len(docs) != 1 || docs[0].Name != "hospital" || docs[0].Elements == 0 {
		t.Fatalf("GET /docs = %+v", docs)
	}
	var views []viewInfo
	getJSON(t, ts, "/views", &views)
	if len(views) != 1 || views[0].Name != "sigma0" || !views[0].Recursive {
		t.Fatalf("GET /views = %+v", views)
	}

	// A view query, twice: the second must be a cache hit with equal
	// answers.
	q := map[string]any{"doc": "hospital", "view": "sigma0", "query": hospital.QExample11, "paths": true}
	var first, second QueryResponse
	resp, body = postJSON(t, ts, "/query", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.CacheHit || first.Count == 0 || len(first.Paths) != first.Count {
		t.Fatalf("first query response: %+v", first)
	}
	_, body = postJSON(t, ts, "/query", q)
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || fmt.Sprint(second.IDs) != fmt.Sprint(first.IDs) {
		t.Fatalf("second query response: %+v", second)
	}

	// Stats reflect the traffic.
	var st Stats
	getJSON(t, ts, "/stats", &st)
	if st.Requests != 2 || st.Cache.Hits != 1 || st.Documents != 1 || st.Views != 1 {
		t.Fatalf("GET /stats = %+v", st)
	}
	if st.VisitedElements <= 0 {
		t.Errorf("stats visited elements = %d, want > 0", st.VisitedElements)
	}

	// Health endpoint.
	if resp := getJSON(t, ts, "/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz = %d", resp.StatusCode)
	}
}

func TestHTTPErrors(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postJSON(t, ts, "/query", map[string]string{"doc": "missing", "query": "a"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("query on unknown doc: %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts, "/docs", map[string]string{"name": "", "xml": "<a/>"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("register without name: %d, want 400", resp.StatusCode)
	}
	// Malformed XML is a client error whatever the document is called,
	// even when the parse error quotes a name that reads "not registered".
	for _, name := range []string{"d", "not registered"} {
		resp, _ = postJSON(t, ts, "/docs", map[string]string{"name": name, "xml": "<not-xml"})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("register bad xml as %q: %d, want 400", name, resp.StatusCode)
		}
	}
	resp, _ = postJSON(t, ts, "/query", map[string]string{"bogus_field": "x"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: %d, want 400", resp.StatusCode)
	}
}

// TestNegativeMaxPathsIsUncapped: a negative Config.MaxPaths (smoqed
// -maxpaths -1) means no cap, as a negative MaxBodyBytes does: a paths
// request gets one path per answer, and a request with no answers an
// empty list, never an error.
func TestNegativeMaxPathsIsUncapped(t *testing.T) {
	s := New(Config{MaxPaths: -1})
	if _, err := s.Registry().RegisterDocument("hospital", hospital.SampleDocument()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, tc := range []struct {
		query   string
		answers bool
	}{{"department/patient", true}, {"department/nosuchlabel", false}} {
		resp, body := postJSON(t, ts, "/query", map[string]any{"doc": "hospital", "query": tc.query, "paths": true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: POST /query: %d %s", tc.query, resp.StatusCode, body)
		}
		var qr QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if (qr.Count > 0) != tc.answers || len(qr.Paths) != qr.Count {
			t.Errorf("%q: %d answers, %d paths", tc.query, qr.Count, len(qr.Paths))
		}
		for _, p := range qr.Paths {
			if !strings.HasPrefix(p, "/hospital[1]/department[") || !strings.Contains(p, "/patient[") {
				t.Errorf("%q: path %q", tc.query, p)
			}
		}
	}
}

// TestViewNameReservedPrefix: collection breakers are keyed
// "collection/<name>", so a view so named would share that collection's
// breaker. POST /views refuses the name with 400 and GET /views never
// lists it; other names still register.
func TestViewNameReservedPrefix(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	register := func(name string) int {
		resp, _ := postJSON(t, ts, "/views", map[string]string{
			"name":       name,
			"spec":       hospital.Sigma0Source,
			"source_dtd": hospital.DocDTDSource,
			"target_dtd": hospital.ViewDTDSource,
		})
		return resp.StatusCode
	}
	if got := register("collection/ward"); got != http.StatusBadRequest {
		t.Errorf("POST /views collection/ward: %d, want 400", got)
	}
	if got := register("ward"); got != http.StatusCreated {
		t.Errorf("POST /views ward: %d, want 201", got)
	}
	var views []viewInfo
	getJSON(t, ts, "/views", &views)
	if len(views) != 1 || views[0].Name != "ward" {
		t.Errorf("GET /views = %+v, want only ward", views)
	}
}
