package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"smoqe/internal/corpus"
	api "smoqe/internal/server"
)

// cmdCorpus talks to a running smoqed's collection endpoints:
//
//	smoqe corpus ls       [-server URL] [-name COLLECTION]
//	smoqe corpus reindex  [-server URL] -name COLLECTION
//	smoqe corpus query    [-server URL] -name COLLECTION -query Q [-view V] [-no-prefilter]
func cmdCorpus(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("corpus: want 'ls', 'reindex' or 'query'")
	}
	switch args[0] {
	case "ls":
		return cmdCorpusLs(args[1:])
	case "reindex":
		return cmdCorpusReindex(args[1:])
	case "query":
		return cmdCorpusQuery(args[1:])
	default:
		return fmt.Errorf("corpus: unknown subcommand %q (want 'ls', 'reindex' or 'query')", args[0])
	}
}

func cmdCorpusLs(args []string) error {
	fs := flag.NewFlagSet("corpus ls", flag.ExitOnError)
	server := fs.String("server", "http://localhost:8640", "base URL of a running smoqed")
	name := fs.String("name", "", "collection to detail (default: list all collections)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := strings.TrimSuffix(*server, "/")
	if *name == "" {
		var infos []corpus.CollectionInfo
		if err := getJSON(base+"/collections", &infos); err != nil {
			return err
		}
		for _, ci := range infos {
			fmt.Fprintln(os.Stdout, formatCollection(ci))
		}
		return nil
	}
	var d api.CollectionDetail
	if err := getJSON(base+"/collections/"+*name, &d); err != nil {
		return err
	}
	fmt.Fprintln(os.Stdout, formatCollection(d.CollectionInfo))
	for _, doc := range d.Docs {
		fmt.Fprintf(os.Stdout, "  %-30s  %-11s", doc.Name, doc.Status)
		if doc.Status == corpus.StatusIndexed {
			fmt.Fprintf(os.Stdout, "  %d elements", doc.Elements)
		}
		if doc.Reason != "" {
			fmt.Fprintf(os.Stdout, "  (%s", doc.Reason)
			if doc.Retries > 0 {
				fmt.Fprintf(os.Stdout, "; %d retries", doc.Retries)
			}
			fmt.Fprint(os.Stdout, ")")
		}
		fmt.Fprintln(os.Stdout)
	}
	return nil
}

func formatCollection(ci corpus.CollectionInfo) string {
	state := "ok"
	if ci.Degraded() {
		state = "degraded"
	}
	return fmt.Sprintf("%-20s  gen %-6d  %d indexed  %d pending  %d quarantined  %s",
		ci.Name, ci.Generation, ci.Indexed, ci.Pending, ci.Quarantined, state)
}

func cmdCorpusReindex(args []string) error {
	fs := flag.NewFlagSet("corpus reindex", flag.ExitOnError)
	server := fs.String("server", "http://localhost:8640", "base URL of a running smoqed")
	name := fs.String("name", "", "collection to reindex")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("corpus reindex: -name is required")
	}
	base := strings.TrimSuffix(*server, "/")
	var info corpus.CollectionInfo
	if err := postJSON(base+"/collections/"+*name+"/reindex", nil, &info); err != nil {
		return err
	}
	fmt.Fprintln(os.Stdout, formatCollection(info))
	return nil
}

// corpusQueryResponse mirrors the streamed POST /collections/{name}/query
// body (read whole here; the CLI is not latency-sensitive).
type corpusQueryResponse struct {
	Collection           string `json:"collection"`
	Generation           uint64 `json:"generation"`
	Stale                bool   `json:"stale"`
	Degraded             bool   `json:"degraded"`
	DocsIndexed          int    `json:"docs_indexed"`
	DocsPending          int    `json:"docs_pending"`
	DocsQuarantined      int    `json:"docs_quarantined"`
	DocsSkippedPrefilter int    `json:"docs_skipped_prefilter"`
	Results              []struct {
		Doc   string `json:"doc"`
		Count int    `json:"count"`
		IDs   []int  `json:"ids"`
	} `json:"results"`
	Count int    `json:"count"`
	Error string `json:"error"`
}

func cmdCorpusQuery(args []string) error {
	fs := flag.NewFlagSet("corpus query", flag.ExitOnError)
	server := fs.String("server", "http://localhost:8640", "base URL of a running smoqed")
	name := fs.String("name", "", "collection to query")
	qsrc := fs.String("query", "", "regular XPath query")
	view := fs.String("view", "", "registered view to pose the query on")
	noPrefilter := fs.Bool("no-prefilter", false, "evaluate every indexed document (crosscheck mode)")
	showIDs := fs.Bool("ids", false, "print per-document node IDs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" || *qsrc == "" {
		return fmt.Errorf("corpus query: -name and -query are required")
	}
	base := strings.TrimSuffix(*server, "/")
	req := map[string]any{"query": *qsrc}
	if *view != "" {
		req["view"] = *view
	}
	if *noPrefilter {
		req["prefilter"] = false
	}
	var resp corpusQueryResponse
	if err := postJSON(base+"/collections/"+*name+"/query", req, &resp); err != nil {
		return err
	}
	state := "ok"
	if resp.Degraded {
		state = "degraded"
	}
	fmt.Fprintf(os.Stdout, "collection %s (gen %d, %s): %d indexed, %d skipped by prefilter\n",
		resp.Collection, resp.Generation, state, resp.DocsIndexed, resp.DocsSkippedPrefilter)
	for _, r := range resp.Results {
		fmt.Fprintf(os.Stdout, "  %-30s  %d node(s)", r.Doc, r.Count)
		if *showIDs {
			fmt.Fprintf(os.Stdout, "  %v", r.IDs)
		}
		fmt.Fprintln(os.Stdout)
	}
	if resp.Error != "" {
		return fmt.Errorf("corpus query: fan-out failed mid-stream: %s", resp.Error)
	}
	fmt.Fprintf(os.Stdout, "%d node(s) total\n", resp.Count)
	return nil
}

// postJSON posts a JSON body (nil means empty) and decodes a JSON reply,
// surfacing {"error": ...} payloads like getJSON does.
func postJSON(url string, req, v any) error {
	var body io.Reader
	if req != nil {
		b, err := json.Marshal(req)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var apiErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(raw, &apiErr) == nil && apiErr.Error != "" {
			return fmt.Errorf("%s: %s", url, apiErr.Error)
		}
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.Unmarshal(raw, v)
}
