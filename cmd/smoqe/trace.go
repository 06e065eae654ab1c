package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	api "smoqe/internal/server"
	"smoqe/internal/trace"
)

// cmdTrace talks to a running smoqed: without -id it lists the retained
// traces (GET /traces), with -id it fetches one trace (GET /traces/{id})
// and renders its span tree.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	server := fs.String("server", "http://localhost:8640", "base URL of a running smoqed")
	id := fs.String("id", "", "trace ID to render (default: list retained traces)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := strings.TrimSuffix(*server, "/")
	if *id == "" {
		var list api.TracesResponse
		if err := getJSON(base+"/traces", &list); err != nil {
			return err
		}
		fmt.Fprintf(os.Stdout, "retained %d traces (%d finished, %d dropped, %d spans total)\n",
			len(list.Traces), list.RetainedTotal+list.DroppedTotal, list.DroppedTotal, list.SpansTotal)
		for _, t := range list.Traces {
			fmt.Fprintf(os.Stdout, "%s  %-8s  %-8s  retained=%-8s  %6dµs  %d spans  %s\n",
				t.TraceID, t.Root, t.Status, t.Retained, t.DurationMicros,
				t.Spans, t.Start.Format(time.RFC3339))
		}
		return nil
	}
	var d trace.Data
	if err := getJSON(base+"/traces/"+*id, &d); err != nil {
		return err
	}
	fmt.Fprint(os.Stdout, renderTrace(&d))
	return nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var apiErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &apiErr) == nil && apiErr.Error != "" {
			return fmt.Errorf("%s: %s", url, apiErr.Error)
		}
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.Unmarshal(body, v)
}

// renderTrace renders one trace's span tree, indented by parent link, each
// span with its offset from the trace start, duration, attributes, events
// and error.
func renderTrace(d *trace.Data) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s  root=%s  status=%s  retained=%s  %dµs",
		d.TraceID, d.Root, d.Status, d.Retained, d.DurationMicros)
	if d.DroppedSpans > 0 {
		fmt.Fprintf(&b, "  (%d spans dropped)", d.DroppedSpans)
	}
	b.WriteByte('\n')

	known := make(map[string]bool, len(d.Spans))
	for _, s := range d.Spans {
		known[s.ID] = true
	}
	children := make(map[string][]trace.SpanData)
	var roots []trace.SpanData
	for _, s := range d.Spans {
		// A span whose parent is not in the trace is a root: the true root
		// span, or one adopted under a remote caller's span.
		if s.Parent != "" && known[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	var walk func(s trace.SpanData, depth int)
	walk = func(s trace.SpanData, depth int) {
		fmt.Fprintf(&b, "%s%s", strings.Repeat("  ", depth+1), s.Name)
		// An orphan — a span whose parent was dropped (ring overflow) or
		// never submitted — renders as a synthetic root, but marked: its
		// +offset is relative to the trace, not to a visible parent, and
		// reading it as a true root would misattribute the whole subtree.
		// The trace's designated root (d.Root) is exempt: a root adopted
		// under a remote caller legitimately has an out-of-trace parent.
		if depth == 0 && s.Parent != "" && s.Name != d.Root {
			fmt.Fprintf(&b, "  (orphan: parent %s not in trace)", s.Parent)
		}
		fmt.Fprintf(&b, "  +%dµs  %dµs", s.StartMicros, s.DurationMicros)
		for _, a := range s.Attrs {
			fmt.Fprintf(&b, "  %s=%s", a.Key, a.Value)
		}
		for _, ev := range s.Events {
			fmt.Fprintf(&b, "  [%s", ev.Name)
			for _, a := range ev.Attrs {
				fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
			}
			fmt.Fprintf(&b, " @%dµs]", ev.AtMicros)
		}
		if s.Error != "" {
			fmt.Fprintf(&b, "  error=%q", s.Error)
		}
		b.WriteByte('\n')
		for _, c := range children[s.ID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}
