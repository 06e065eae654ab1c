package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans are recorded from outside: the benchmark opens one around each of
// its own calls into a module's public entry point.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Req    int64  `json:"req"`    // request id; -1 for set-up
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	// Alloc is the heap bytes allocated while the span was open, as
	// runtime/metrics reports them (which does not stop the world).
	Alloc uint64 `json:"alloc_bytes"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once, at the end.
// A nil *tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	t0    time.Time
	spans []span
	alloc []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		t0:    time.Now(),
		spans: make([]span, 0, 1<<16),
		alloc: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) allocated() uint64 {
	metrics.Read(t.alloc)
	return t.alloc[0].Value.Uint64()
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int32, req int64, attr string) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, Attr: attr})
	s := &t.spans[id]
	s.Alloc = t.allocated()
	s.Start = int64(time.Since(t.t0))
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	end := int64(time.Since(t.t0))
	s := &t.spans[id]
	s.End = end
	s.Alloc = t.allocated() - s.Alloc
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[s.ID] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		covered, reach := int64(0), s.Start
		for _, v := range ivs {
			if v.a > reach {
				reach = v.a
			}
			if v.b > reach {
				covered += v.b - reach
				reach = v.b
			}
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self
}

// dump writes the spans as JSON lines to path.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRow summarizes the spans of one name.
type layerRow struct {
	name             string
	n                int
	selfP50, selfP99 time.Duration
	allocP50KB       float64
}

// layerTable summarizes spans by name, in order of first appearance.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	var order []string
	byName := make(map[string][]int)
	for i, s := range spans {
		if _, ok := byName[s.Name]; !ok {
			order = append(order, s.Name)
		}
		byName[s.Name] = append(byName[s.Name], i)
	}
	rows := make([]layerRow, 0, len(order))
	for _, name := range order {
		idx := byName[name]
		ds := make([]float64, len(idx))
		as := make([]float64, len(idx))
		for k, i := range idx {
			ds[k] = float64(self[i])
			as[k] = float64(spans[i].Alloc) / 1024
		}
		rows = append(rows, layerRow{
			name:       name,
			n:          len(idx),
			selfP50:    time.Duration(quantile(ds, 0.50)),
			selfP99:    time.Duration(quantile(ds, 0.99)),
			allocP50KB: quantile(as, 0.50),
		})
	}
	return rows
}

func printLayerTable(w *bufio.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-26s %8s %12s %12s %14s\n", "span", "n", "self_p50_ms", "self_p99_ms", "alloc_p50_kb")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %8d %12.4f %12.4f %14.1f\n", r.name, r.n,
			ms(r.selfP50), ms(r.selfP99), r.allocP50KB)
	}
}
