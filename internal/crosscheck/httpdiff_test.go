package crosscheck_test

// The end-to-end differential: generated queries go through the full HTTP
// front end (server.Handler) under every request option, and every answer
// must equal the reference evaluator on a separately parsed copy of the
// document. Engines, parallelism, explain, trace forcing and the way the
// document was registered (XML or snapshot) may change how an answer is
// computed, never what it is.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/hospital"
	"smoqe/internal/qgen"
	"smoqe/internal/refeval"
	"smoqe/internal/server"
	"smoqe/internal/view"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

// httpAnswer is the part of a response the oracle decides.
type httpAnswer struct {
	Count int      `json:"count"`
	IDs   []int    `json:"ids"`
	Paths []string `json:"paths"`
}

// httpStats is the part of a response that must not depend on the
// substrate or on shard-parallelism.
type httpStats struct {
	Visited  int `json:"visited_elements"`
	Skipped  int `json:"skipped_subtrees"`
	AFAEvals int `json:"afa_evaluations"`
}

type httpQueryResponse struct {
	httpAnswer
	httpStats
}

// diffQuery is one generated query with its oracle answer per document.
type diffQuery struct {
	src    string
	onView bool
	want   httpAnswer            // on the single registered document
	byDoc  map[string]httpAnswer // on each collection document
}

// oracle evaluates q with refeval: on the source, or for a view query on
// σ0(T) mapped back to the source nodes behind the answers.
func oracle(t *testing.T, q xpath.Path, onView bool, doc *xmltree.Document) httpAnswer {
	t.Helper()
	var nodes []*xmltree.Node
	if onView {
		mat, err := view.Materialize(hospital.Sigma0(), doc)
		if err != nil {
			t.Fatal(err)
		}
		nodes = mat.SourceOf(refeval.Eval(q, mat.Doc.Root))
	} else {
		nodes = refeval.Eval(q, doc.Root)
	}
	a := httpAnswer{Count: len(nodes), IDs: xmltree.IDsOf(nodes), Paths: make([]string, len(nodes))}
	for i, n := range nodes {
		a.Paths[i] = n.Path()
	}
	return a
}

func parseCopy(t *testing.T, xml string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func httpPost(t *testing.T, ts *httptest.Server, path, contentType string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(ts.URL+path, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		t.Fatalf("POST %s: %d %s", path, resp.StatusCode, raw)
	}
	return raw
}

func httpPostJSON(t *testing.T, ts *httptest.Server, path string, payload any) []byte {
	t.Helper()
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	return httpPost(t, ts, path, "application/json", body)
}

// TestHTTPDifferential sends about 40 generated queries — half over the
// document DTD, half over σ0's view DTD — through POST /query under every
// combination of engine, parallelism, explain, trace and registration
// form, and through POST /collections/{name}/query with the prefilter on
// and off.
func TestHTTPDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	docXML := corpus(t, 10, 41).XMLString()
	var snap bytes.Buffer
	if err := colstore.FromTree(parseCopy(t, docXML)).WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}

	// The collection: three documents of one corpus directory.
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "ward"), 0o755); err != nil {
		t.Fatal(err)
	}
	colXML := map[string]string{}
	for i, seed := range []int64{5, 6, 7} {
		name := fmt.Sprintf("d%d.xml", i)
		colXML[name] = corpus(t, 4+i, seed).XMLString()
		if err := os.WriteFile(filepath.Join(dir, "ward", name), []byte(colXML[name]), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	srv := server.New(server.Config{MaxParallelism: 2})
	if err := srv.OpenCorpus(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.CloseCorpus)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	httpPostJSON(t, ts, "/docs", map[string]string{"name": "xml", "xml": docXML})
	httpPost(t, ts, "/snapshot?name=snap", "application/octet-stream", snap.Bytes())
	httpPostJSON(t, ts, "/views", map[string]string{
		"name": "sigma0", "spec": hospital.Sigma0Source,
		"source_dtd": hospital.DocDTDSource, "target_dtd": hospital.ViewDTDSource,
	})

	// Queries and their oracle answers, each on separately parsed copies.
	texts := []string{"heart disease", "flu", "lung disease", "nonexistent value"}
	var queries []diffQuery
	for _, gen := range []struct {
		g      *qgen.Gen
		onView bool
	}{
		{qgen.New(hospital.DocDTD(), 4242, texts), false},
		{qgen.New(hospital.ViewDTD(), 4343, texts), true},
	} {
		for i := 0; i < 20; i++ {
			q := gen.g.Query()
			dq := diffQuery{src: q.String(), onView: gen.onView, byDoc: map[string]httpAnswer{}}
			dq.want = oracle(t, q, gen.onView, parseCopy(t, docXML))
			for name, xml := range colXML {
				dq.byDoc[name] = oracle(t, q, gen.onView, parseCopy(t, xml))
			}
			queries = append(queries, dq)
		}
	}

	nonEmpty := 0
	for qi, dq := range queries {
		if dq.want.Count > 0 {
			nonEmpty++
		}
		stats := map[string]httpStats{}
		for _, doc := range []string{"xml", "snap"} {
			for _, engine := range []string{"hype", "opthype", "columnar"} {
				for _, par := range []int{0, 2} {
					for _, explain := range []bool{false, true} {
						for _, forceTrace := range []bool{false, true} {
							req := map[string]any{
								"doc": doc, "query": dq.src, "engine": engine, "paths": true,
								"parallelism": par, "explain": explain, "trace": forceTrace,
							}
							if dq.onView {
								req["view"] = "sigma0"
							}
							tag := fmt.Sprintf("query %d %q doc=%s engine=%s parallelism=%d explain=%v trace=%v",
								qi, dq.src, doc, engine, par, explain, forceTrace)
							var got httpQueryResponse
							if err := json.Unmarshal(httpPostJSON(t, ts, "/query", req), &got); err != nil {
								t.Fatalf("%s: %v", tag, err)
							}
							if !reflect.DeepEqual(got.httpAnswer, dq.want) && !(got.Count == 0 && dq.want.Count == 0) {
								t.Fatalf("%s: got %+v, reference %+v", tag, got.httpAnswer, dq.want)
							}
							// Statistics agree between hype and columnar and
							// between parallelism 0 and 2; opthype prunes
							// with its index, so it is compared only across
							// parallelism.
							family := "pointer"
							if engine == "opthype" {
								family = "opthype"
							}
							key := fmt.Sprintf("%s/%s/%v/%v", doc, family, explain, forceTrace)
							if prev, ok := stats[key]; ok && prev != got.httpStats {
								t.Fatalf("%s: stats %+v, a sibling run reported %+v", tag, got.httpStats, prev)
							}
							stats[key] = got.httpStats
						}
					}
				}
			}
		}

		for _, prefilter := range []bool{true, false} {
			req := map[string]any{"query": dq.src, "prefilter": prefilter}
			if dq.onView {
				req["view"] = "sigma0"
			}
			raw := httpPostJSON(t, ts, "/collections/ward/query", req)
			var got struct {
				Results []struct {
					Doc string `json:"doc"`
					IDs []int  `json:"ids"`
				} `json:"results"`
				Error string `json:"error"`
			}
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatalf("query %d %q collection: %v: %s", qi, dq.src, err, raw)
			}
			if got.Error != "" {
				t.Fatalf("query %d %q collection: %s", qi, dq.src, got.Error)
			}
			gotIDs := map[string][]int{}
			for _, r := range got.Results {
				gotIDs[r.Doc] = r.IDs
			}
			for name, want := range dq.byDoc {
				if len(gotIDs[name]) != len(want.IDs) || (len(want.IDs) > 0 && !reflect.DeepEqual(gotIDs[name], want.IDs)) {
					t.Fatalf("query %d %q collection prefilter=%v, %s: ids %v, reference %v",
						qi, dq.src, prefilter, name, gotIDs[name], want.IDs)
				}
			}
		}
	}
	if nonEmpty < 8 {
		t.Errorf("only %d/%d generated queries had nonempty answers; generator too weak", nonEmpty, len(queries))
	}
}
