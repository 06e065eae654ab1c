package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smoqe"
	"smoqe/internal/colstore"
	"smoqe/internal/corpus"
	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
)

// TestIntakeParity: every way outside bytes become a document — POST
// /docs, POST /snapshot, LoadSnapshotDir, LoadDocument of XML and of a
// snapshot, and a corpus collection — decodes through colstore.Decode. So
// a document gives byte-identical columns and the same GET /docs row
// whichever way it came in, and a document over a parse limit is refused
// the same way on every path: 413 over HTTP, a *ParseLimitError counted
// once in smoqe_limit_exceeded_total{cause}, a quarantine in a collection.
func TestIntakeParity(t *testing.T) {
	snapshotOf := func(cd *smoqe.ColumnarDocument) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := smoqe.WriteSnapshot(cd, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	type input struct {
		name, xml string
		snap      []byte
		cause     string // "" for a document within the limits
	}
	inputs := []*input{
		{name: "sample", xml: hospital.SampleXML},
		{name: "gen", xml: datagen.Generate(datagen.DefaultConfig(30)).XMLString()},
	}
	// The limits admit exactly the two good documents.
	var lim smoqe.ParseLimits
	for _, in := range inputs {
		doc, err := smoqe.ParseDocumentString(in.xml)
		if err != nil {
			t.Fatal(err)
		}
		cd := smoqe.BuildColumnar(doc)
		lim.MaxDepth = max(lim.MaxDepth, colstore.ElementDepth(cd))
		lim.MaxNodes = max(lim.MaxNodes, cd.NumNodes())
	}
	inputs = append(inputs,
		&input{name: "deep", xml: strings.Repeat("<a>", lim.MaxDepth+1) + strings.Repeat("</a>", lim.MaxDepth+1), cause: "doc-depth"},
		&input{name: "wide", xml: "<r>" + strings.Repeat("<a/>", lim.MaxNodes) + "</r>", cause: "doc-nodes"},
	)
	for _, in := range inputs {
		doc, err := smoqe.ParseDocumentString(in.xml)
		if err != nil {
			t.Fatal(err)
		}
		in.snap = snapshotOf(smoqe.BuildColumnar(doc))
	}

	serve := func(s *Server, method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	statusOf := func(err error) int {
		if err == nil {
			return http.StatusCreated
		}
		return statusFor(err)
	}
	ctx := context.Background()
	paths := []struct {
		name string
		// load registers in under in.name and returns the status a client
		// sees, plus the error of a Go call.
		load func(s *Server, in *input) (int, error)
	}{
		{"POST /docs", func(s *Server, in *input) (int, error) {
			body, _ := json.Marshal(map[string]string{"name": in.name, "xml": in.xml})
			return serve(s, http.MethodPost, "/docs", body).Code, nil
		}},
		{"POST /snapshot", func(s *Server, in *input) (int, error) {
			return serve(s, http.MethodPost, "/snapshot?name="+in.name, in.snap).Code, nil
		}},
		{"LoadSnapshotDir", func(s *Server, in *input) (int, error) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, in.name+smoqe.SnapshotFileExt), in.snap, 0o644); err != nil {
				t.Fatal(err)
			}
			_, skipped, err := s.LoadSnapshotDir(dir)
			if err == nil && len(skipped) > 0 {
				err = skipped[0]
			}
			return statusOf(err), err
		}},
		{"LoadDocument XML", func(s *Server, in *input) (int, error) {
			_, err := s.LoadDocument(ctx, in.name, strings.NewReader(in.xml), false)
			return statusOf(err), err
		}},
		{"LoadDocument snapshot", func(s *Server, in *input) (int, error) {
			_, err := s.LoadDocument(ctx, in.name, bytes.NewReader(in.snap), true)
			return statusOf(err), err
		}},
	}

	for _, in := range inputs {
		var wantRows string
		for _, p := range paths {
			s := New(Config{ParseLimits: lim})
			status, err := p.load(s, in)
			if in.cause != "" {
				var ple *smoqe.ParseLimitError
				if status != http.StatusRequestEntityTooLarge || (err != nil && !errors.As(err, &ple)) {
					t.Errorf("%s of %s: status %d, error %v; want 413 and a *ParseLimitError", p.name, in.name, status, err)
				}
				if got := limitExceeded(t, s, in.cause); got != 1 {
					t.Errorf("%s of %s: smoqe_limit_exceeded_total{cause=%q} = %d, want 1", p.name, in.name, in.cause, got)
				}
				if _, ok := s.Registry().Document(in.name); ok {
					t.Errorf("%s of %s: over-limit document registered", p.name, in.name)
				}
				continue
			}
			entry, ok := s.Registry().Document(in.name)
			if status != http.StatusCreated || !ok {
				t.Errorf("%s of %s: status %d, error %v, registered %v", p.name, in.name, status, err, ok)
				continue
			}
			if !bytes.Equal(snapshotOf(entry.Col), in.snap) {
				t.Errorf("%s of %s: columns differ from the parsed document's", p.name, in.name)
			}
			rows := serve(s, http.MethodGet, "/docs", nil).Body.String()
			if wantRows == "" {
				wantRows = rows
			} else if rows != wantRows {
				t.Errorf("%s of %s: GET /docs %s, want %s", p.name, in.name, rows, wantRows)
			}
		}
	}

	// A collection holds every document in both forms: the good ones are
	// indexed with the same columns, the over-limit ones quarantined with
	// the reason prefix of their form.
	dir := t.TempDir()
	col := filepath.Join(dir, "intake")
	if err := os.Mkdir(col, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, in := range inputs {
		if err := os.WriteFile(filepath.Join(col, in.name+".xml"), []byte(in.xml), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(col, in.name+smoqe.SnapshotFileExt), in.snap, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := New(Config{ParseLimits: lim})
	if err := s.OpenCorpus(ctx, dir); err != nil {
		t.Fatal(err)
	}
	defer s.CloseCorpus()
	c, ok := s.Corpus().Collection("intake")
	if !ok {
		t.Fatal("collection intake missing")
	}
	byName := make(map[string]*input)
	for _, in := range inputs {
		byName[in.name] = in
	}
	docs := c.Docs()
	if len(docs) != 2*len(inputs) {
		t.Fatalf("collection holds %d documents, want %d", len(docs), 2*len(inputs))
	}
	for _, d := range docs {
		ext := filepath.Ext(d.Name)
		in := byName[strings.TrimSuffix(d.Name, ext)]
		switch {
		case in.cause == "":
			if d.Status != corpus.StatusIndexed || !bytes.Equal(snapshotOf(d.Col), in.snap) {
				t.Errorf("collection %s: status %s (%s), or columns differ from the parsed document's", d.Name, d.Status, d.Reason)
			}
		case ext == ".xml":
			if d.Status != corpus.StatusQuarantined || !strings.HasPrefix(d.Reason, "parse: ") {
				t.Errorf("collection %s: status %s, reason %q; want quarantined, \"parse: …\"", d.Name, d.Status, d.Reason)
			}
		default:
			if d.Status != corpus.StatusQuarantined || !strings.HasPrefix(d.Reason, "snapshot: ") {
				t.Errorf("collection %s: status %s, reason %q; want quarantined, \"snapshot: …\"", d.Name, d.Status, d.Reason)
			}
		}
	}
}

// limitExceeded reads smoqe_limit_exceeded_total{cause} from s's metrics,
// zero when the series is absent.
func limitExceeded(t *testing.T, s *Server, cause string) int64 {
	t.Helper()
	var scrape bytes.Buffer
	if err := s.Telemetry().WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	series := `smoqe_limit_exceeded_total{cause="` + cause + `"}`
	if !strings.Contains(scrape.String(), series+" ") {
		return 0
	}
	return metricValue(t, scrape.String(), series)
}
