package main

import (
	"bufio"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit and sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int64
}

// report collects what a run measured and what went wrong.
type report struct {
	metrics       []metric // the result line's metrics
	printed       []metric // shown in the table only
	attempted, ok int64    // requests of the timed windows
	problems      []string
	layers        []layerRow
	spansPath     string
}

func (r *report) add(name string, value float64, unit string, n int64) {
	r.metrics = append(r.metrics, metric{name, value, unit, n})
}

// window folds a timed window's request outcomes into the report.
func (r *report) window(w *window) {
	r.attempted += w.attempted
	r.ok += w.ok
	if w.attempted > w.ok {
		r.problems = append(r.problems, fmt.Sprintf("%d of %d requests failed; first: %s",
			w.attempted-w.ok, w.attempted, w.failures[0]))
	}
}

// connections checks that the client's load came over one connection.
func (r *report) connections(h *harness) {
	if n := h.ln.accepted.Load(); n != 1 {
		r.problems = append(r.problems, fmt.Sprintf("the client opened %d connections, want 1", n))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of xs, interpolating between closest
// ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func durQuantile(ds []time.Duration, q float64) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, q))
}

// p99Slice is the fewest requests a slice needs for its 99th percentile
// to rest on at least ten samples beyond it.
const p99Slice = 1000

// endToEnd adds the end-to-end metrics of an untraced window. Throughput
// and CPU per request are medians over the window's slices; the p99 is the
// median over consecutive runs of whole cycles holding at least p99Slice
// requests each (the whole window when it holds fewer than two).
func (r *report) endToEnd(w *window) {
	n := w.attempted
	rates := make([]float64, len(w.slices))
	cpus := make([]float64, len(w.slices))
	for i, s := range w.slices {
		rates[i] = float64(s.requests) / s.elapsed.Seconds()
		cpus[i] = ms(s.cpu) / float64(s.requests)
	}
	w.latP50 = durQuantile(w.lat, 0.50)
	r.add("throughput_rps", quantile(rates, 0.5), "req/s", n)
	r.add("latency_p50_ms", ms(w.latP50), "ms", n)
	r.add("latency_p99_ms", ms(sliceP99(w.lat, w.cycleLen)), "ms", n)
	r.add("cpu_ms_per_req", quantile(cpus, 0.5), "ms", n)
	r.add("ok_frac", ratio(float64(w.ok), float64(n)), "fraction", n)
}

// sliceP99 is the median of the 99th percentiles of consecutive slices of
// lat, each a whole number of cycles holding at least p99Slice requests; a
// short remainder joins the last slice.
func sliceP99(lat []time.Duration, cycleLen int) time.Duration {
	per := (p99Slice + cycleLen - 1) / cycleLen * cycleLen
	var p99s []float64
	for start := 0; start < len(lat); start += per {
		end := start + per
		if len(lat)-end < per {
			end = len(lat)
		}
		p99s = append(p99s, float64(durQuantile(lat[start:end], 0.99)))
		if end == len(lat) {
			break
		}
	}
	return time.Duration(quantile(p99s, 0.5))
}

// spanStats gathers span durations and self times by name and attribute.
type spanStats struct {
	spans []span
	self  []time.Duration
}

// selfOf returns the self times of the spans with this name (and this
// attribute, unless attr is "*").
func (s *spanStats) selfOf(name, attr string) []time.Duration {
	var out []time.Duration
	for i, sp := range s.spans {
		if sp.Name == name && (attr == "*" || sp.Attr == attr) {
			out = append(out, s.self[i])
		}
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// perLayer adds the per-layer metrics: layer times from the traced window
// tw's spans (self time, medians unless the metric says otherwise), counts
// from the responses at the same boundary, and Go runtime counters from
// the untraced window base.
func (r *report) perLayer(in *inputs, base, tw *window, tr *tracer) {
	st := &spanStats{spans: tr.spans, self: selfTimes(tr.spans)}
	med := func(ds []time.Duration) time.Duration { return durQuantile(ds, 0.5) }
	dur := func(id int32) time.Duration {
		if id < 0 {
			return 0
		}
		return tr.spans[id].dur()
	}
	c := tw.counts
	n := tw.attempted

	// HTTP front end.
	var transport, jsonT []time.Duration
	var handlerQ, covered time.Duration
	var queries int64
	for _, t := range tw.traced {
		if t.hit && t.handler >= 0 {
			transport = append(transport, dur(t.root)-dur(t.handler))
		}
		if t.decode >= 0 {
			jsonT = append(jsonT, dur(t.decode)+dur(t.encode))
		}
		if t.r.kind == kindQuery {
			queries++
			handlerQ += dur(t.handler)
			covered += dur(t.decode) + dur(t.query) + dur(t.encode)
		}
	}
	r.add("server.transport_ms", ms(med(transport)), "ms", int64(len(transport)))
	r.add("server.json_us", float64(med(jsonT))/1e3, "us", int64(len(jsonT)))
	r.add("server.resp_kb", ratio(float64(c.respBytes), float64(n))/1024, "KiB", n)
	unattributed := 0.0
	if handlerQ > 0 {
		unattributed = 1 - float64(covered)/float64(handlerQ)
	}
	r.add("server.unattributed_frac", unattributed, "fraction", queries)

	// Plan cache.
	r.add("server.plancache_hit_ratio", ratio(float64(c.hits), float64(c.hits+c.misses)), "fraction", c.hits+c.misses)
	r.add("server.plancache_evictions_per_kreq", 1000*ratio(float64(c.evictions), float64(n)), "count/kreq", n)
	var regView []time.Duration
	regView = append(regView, st.selfOf("server.register_view", "*")...)
	for _, t := range tw.traced {
		if t.r.kind == kindView {
			regView = append(regView, dur(t.handler))
		}
	}
	r.add("server.register_view_ms", ms(med(regView)), "ms", int64(len(regView)))

	// Plan pipeline, on plan-cache misses.
	for _, p := range []struct{ metric, span string }{
		{"xpath.parse_us", "xpath.parse"},
		{"rewrite.rewrite_us", "rewrite.rewrite"},
		{"mfa.compile_us", "mfa.compile"},
		{"smoqe.prepare_us", "smoqe.prepare"},
	} {
		ds := st.selfOf(p.span, "*")
		r.add(p.metric, float64(med(ds))/1e3, "us", int64(len(ds)))
	}
	built := int64(len(st.selfOf("smoqe.prepare", "*")))
	r.add("mfa.states_per_plan", ratio(float64(tw.statesBuilt), float64(built)), "count", built)

	// Evaluation: Server.Query on a cached plan is evaluation plus answer
	// materialization.
	for _, e := range engines {
		ds := st.selfOf("server.query", e)
		r.add("hype.eval_ms."+e, ms(med(ds)), "ms", int64(len(ds)))
	}
	r.add("hype.visited_per_req", ratio(float64(c.visited), float64(c.queries)), "count", c.queries)
	prune := 0.0
	if c.queries > 0 && in.elements > 0 {
		prune = 1 - float64(c.visited)/(float64(c.queries)*float64(in.elements))
	}
	r.add("hype.prune_ratio", prune, "fraction", c.queries)
	r.add("hype.afa_evals_per_req", ratio(float64(c.afa), float64(c.queries)), "count", c.queries)
	r.add("server.answers_per_req", ratio(float64(c.answers), float64(c.queries+c.collections)), "count", c.queries+c.collections)

	// Corpus fan-out.
	var fanout []time.Duration
	var cpu, wall time.Duration
	for _, t := range tw.traced {
		if t.r.kind == kindCollection {
			fanout = append(fanout, dur(t.handler))
			cpu += t.cpu
			wall += t.wall
		}
	}
	r.add("corpus.query_ms", ms(med(fanout)), "ms", int64(len(fanout)))
	r.add("corpus.docs_evaluated_per_req", ratio(float64(c.docsIndexed-c.docsSkipped), float64(c.collections)), "count", c.collections)
	r.add("corpus.prefilter_skip_ratio", ratio(float64(c.docsSkipped), float64(c.docsIndexed)), "fraction", c.collections)
	r.add("corpus.fanout_cpu_util", ratio(float64(cpu), float64(wall)*float64(runtime.GOMAXPROCS(0))), "fraction", c.collections)

	// Documents, at set-up: totals over the workload's documents.
	for _, p := range []struct{ metric, span string }{
		{"xmltree.parse_ms", "xmltree.parse"},
		{"colstore.build_ms", "colstore.build"},
		{"colstore.snapshot_read_ms", "colstore.snapshot_read"},
		{"server.register_doc_ms", "server.register_doc"},
		{"corpus.open_ms", "corpus.open"},
	} {
		ds := st.selfOf(p.span, "*")
		r.add(p.metric, ms(sum(ds)), "ms", int64(len(ds)))
	}
	for _, e := range engines {
		ds := st.selfOf("server.first_query", e)
		r.add("server.first_query_ms."+e, ms(sum(ds)), "ms", int64(len(ds)))
	}

	// Go runtime, over the untraced window.
	bn := float64(base.attempted)
	r.add("runtime.alloc_kb_per_req", ratio(float64(base.rt.alloc), bn)/1024, "KiB", base.attempted)
	r.add("runtime.gc_cycles_per_kreq", 1000*ratio(float64(base.rt.gcs), bn), "count/kreq", base.attempted)
	r.add("runtime.gc_cpu_frac", ratio(base.rt.gcCPU, base.rt.totalCPU), "fraction", base.attempted)

	// The benchmark itself.
	roots := st.selfOf("request", "*")
	r.add("bench.trace_overhead_frac", ratio(float64(med(roots)), float64(base.latP50))-1, "fraction", int64(len(roots)))
}

func (r *report) print(w *bufio.Writer) {
	if len(r.layers) > 0 {
		fmt.Fprintf(w, "\nlayers (traced pass; spans in %s)\n", r.spansPath)
		printLayerTable(w, r.layers)
	}
	table := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "\n%s\n%-36s %16s %-10s %8s\n", title, "metric", "value", "unit", "n")
		for _, m := range ms {
			fmt.Fprintf(w, "%-36s %16.6g %-10s %8d\n", m.name, m.value, m.unit, m.n)
		}
	}
	if len(r.printed) > 0 {
		table("end to end (untraced run)", r.printed)
		table("per layer (traced run)", r.metrics)
	} else {
		table("end to end (untraced run)", r.metrics)
	}
	fmt.Fprintln(w)
}
