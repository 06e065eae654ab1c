package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"smoqe"
	"smoqe/internal/hospital"
	"smoqe/internal/server"
)

// harness is one in-process server with the default Config, served by its
// Handler on a loopback listener, and the benchmark's single client: one
// keep-alive connection, closed loop.
type harness struct {
	srv     *server.Server
	handler http.Handler
	hs      *http.Server
	ln      *countingListener
	served  chan error
	tr      *http.Transport
	client  *http.Client
	base    string
	body    bytes.Buffer // last response body
}

// countingListener counts accepted connections, so a run can show that its
// load came over exactly one.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

func startServer() (*harness, error) {
	srv := server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &harness{
		srv:     srv,
		handler: srv.Handler(),
		ln:      &countingListener{Listener: ln},
		served:  make(chan error, 1),
		tr: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
		base: "http://" + ln.Addr().String(),
	}
	h.client = &http.Client{Transport: h.tr}
	h.hs = &http.Server{Handler: h.handler}
	go func() { h.served <- h.hs.Serve(h.ln) }()
	return h, nil
}

// stop shuts the server down and waits until it has stopped serving.
func (h *harness) stop() error {
	h.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if serr := <-h.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// post sends one request and reads the whole response into h.body. The
// latency runs from sending to the last body byte read.
func (h *harness) post(path string, body []byte) (int, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, h.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, time.Since(t0), err
	}
	h.body.Reset()
	_, err = h.body.ReadFrom(resp.Body)
	lat := time.Since(t0)
	resp.Body.Close()
	return resp.StatusCode, lat, err
}

// outcome is what one response showed: whether its answer was right, and
// the counts read from it.
type outcome struct {
	err                      error
	visited, afa, answers    int64
	docsIndexed, docsSkipped int64
	respBytes                int64
}

type queryReply struct {
	Count         int      `json:"count"`
	IDs           []int    `json:"ids"`
	Paths         []string `json:"paths"`
	ElapsedMicros int64    `json:"elapsed_us"`
	Visited       int64    `json:"visited_elements"`
	AFAEvals      int64    `json:"afa_evaluations"`
}

type collectionReply struct {
	DocsIndexed int64       `json:"docs_indexed"`
	DocsSkipped int64       `json:"docs_skipped_prefilter"`
	Results     []docAnswer `json:"results"`
	Count       int         `json:"count"`
	Error       *string     `json:"error"`
}

// check compares one response with the request's expected answer.
func check(r *request, status int, body []byte, sendErr error) outcome {
	var o outcome
	if sendErr != nil {
		o.err = sendErr
		return o
	}
	o.respBytes = int64(len(body))
	switch r.kind {
	case kindView:
		if status != http.StatusCreated {
			o.err = fmt.Errorf("view registration: status %d: %s", status, clip(body))
		}
	case kindQuery:
		if status != http.StatusOK {
			o.err = fmt.Errorf("status %d: %s", status, clip(body))
			return o
		}
		var rep queryReply
		if err := json.Unmarshal(body, &rep); err != nil {
			o.err = fmt.Errorf("decode reply: %w", err)
			return o
		}
		// The elapsed_us timing field is the one part of the body whose
		// width varies from run to run; leaving its digits out makes the
		// byte count repeat exactly.
		o.respBytes -= int64(len(strconv.FormatInt(rep.ElapsedMicros, 10)))
		o.visited, o.afa, o.answers = rep.Visited, rep.AFAEvals, int64(rep.Count)
		o.err = compareQuery(r.want, &rep)
	case kindCollection:
		if status != http.StatusOK {
			o.err = fmt.Errorf("status %d: %s", status, clip(body))
			return o
		}
		var rep collectionReply
		if err := json.Unmarshal(body, &rep); err != nil {
			o.err = fmt.Errorf("decode reply: %w", err)
			return o
		}
		o.docsIndexed, o.docsSkipped, o.answers = rep.DocsIndexed, rep.DocsSkipped, int64(rep.Count)
		o.err = compareCollection(r.want, &rep)
	}
	return o
}

func compareQuery(want *answer, rep *queryReply) error {
	if rep.Count != want.count || !slices.Equal(rep.IDs, want.ids) {
		return fmt.Errorf("answer: count %d ids %s, want count %d ids %s",
			rep.Count, head(rep.IDs), want.count, head(want.ids))
	}
	if want.paths == nil {
		return nil
	}
	// The server may cap how many paths it returns, never which.
	if len(rep.Paths) > want.count || (want.count > 0 && len(rep.Paths) == 0) {
		return fmt.Errorf("paths: got %d for %d answers", len(rep.Paths), want.count)
	}
	for i, p := range rep.Paths {
		if p != want.paths[i] {
			return fmt.Errorf("path %d: %q, want %q", i, p, want.paths[i])
		}
	}
	return nil
}

func compareCollection(want *answer, rep *collectionReply) error {
	if rep.Error != nil {
		return fmt.Errorf("fan-out error: %s", *rep.Error)
	}
	if rep.Count != want.count || len(rep.Results) != len(want.docs) {
		return fmt.Errorf("answer: count %d over %d documents, want %d over %d",
			rep.Count, len(rep.Results), want.count, len(want.docs))
	}
	for i, d := range rep.Results {
		w := want.docs[i]
		if d.Doc != w.Doc || d.Count != w.Count || !slices.Equal(d.IDs, w.IDs) {
			return fmt.Errorf("document %d: %s count %d, want %s count %d", i, d.Doc, d.Count, w.Doc, w.Count)
		}
	}
	return nil
}

func clip(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(bytes.TrimSpace(b))
}

func head(ids []int) string {
	if len(ids) > 5 {
		return fmt.Sprint(ids[:5]) + "…"
	}
	return fmt.Sprint(ids)
}

// counts are the exact counts a window's responses and the plan cache
// show. Over whole cycles of one seed's sequence they repeat exactly.
type counts struct {
	cycles                   int64
	hits, misses, evictions  int64
	queries                  int64 // query requests
	visited, afa, answers    int64
	collections              int64 // collection requests
	docsIndexed, docsSkipped int64
	respBytes                int64
}

func (c *counts) add(r *request, o outcome) {
	switch r.kind {
	case kindQuery:
		c.queries++
	case kindCollection:
		c.collections++
	}
	c.visited += o.visited
	c.afa += o.afa
	c.answers += o.answers
	c.docsIndexed += o.docsIndexed
	c.docsSkipped += o.docsSkipped
	c.respBytes += o.respBytes
}

// sameCounts reports the first count that differs per cycle between two
// windows over the same cycle, or "" when all repeat exactly.
func sameCounts(a, b counts) string {
	pairs := []struct {
		name string
		x, y int64
	}{
		{"plan-cache hits", a.hits, b.hits},
		{"plan-cache misses", a.misses, b.misses},
		{"plan-cache evictions", a.evictions, b.evictions},
		{"visited elements", a.visited, b.visited},
		{"AFA evaluations", a.afa, b.afa},
		{"documents evaluated", a.docsIndexed - a.docsSkipped, b.docsIndexed - b.docsSkipped},
		{"response bytes", a.respBytes, b.respBytes},
	}
	for _, p := range pairs {
		if p.x*b.cycles != p.y*a.cycles {
			return fmt.Sprintf("%s: %d over %d cycles vs %d over %d cycles", p.name, p.x, a.cycles, p.y, b.cycles)
		}
	}
	return ""
}

// rtStats are Go runtime counters read with runtime/metrics.
type rtStats struct {
	alloc, gcs      uint64
	gcCPU, totalCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtStats {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtStats{
		alloc:    s[0].Value.Uint64(),
		gcs:      s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
	}
}

func (a rtStats) sub(b rtStats) rtStats {
	return rtStats{a.alloc - b.alloc, a.gcs - b.gcs, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the live heap after forced collections. Two cycles also
// empty the sync.Pools, so pooled scratch state does not count.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// writeCorpus writes the collection's files under dir/<collection>/.
func writeCorpus(dir string, docs []docInput) error {
	cdir := filepath.Join(dir, collectionName)
	if err := os.MkdirAll(cdir, 0o755); err != nil {
		return err
	}
	for _, d := range docs {
		data := []byte(d.xml)
		if d.snapshot != nil {
			data = d.snapshot
		}
		if err := os.WriteFile(filepath.Join(cdir, d.name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// setUp starts a server and brings it to the state the timed windows run
// in: documents, σ0 and the collection registered, then one warm-up pass
// over the cycle, whose first request per engine carries the lazy index
// and columnar builds. The corpus files must already be in corpusDir.
// Warm-up answers are checked like any other; a wrong one is returned as
// an error after the pass completes.
func setUp(in *inputs, regBodies [][]byte, corpusDir string, tr *tracer) (*harness, time.Duration, error) {
	t0 := time.Now()
	root := tr.begin("setup", -1, -1, "")
	defer tr.end(root)
	h, err := startServer()
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*harness, time.Duration, error) {
		h.stop()
		return nil, 0, err
	}
	for i, d := range in.docs {
		sp := tr.begin("server.register_doc", root, -1, d.name)
		status, _, err := h.post("/docs", regBodies[i])
		tr.end(sp)
		if err != nil || status != http.StatusCreated {
			return fail(fmt.Errorf("register document %s: status %d %v: %s", d.name, status, err, clip(h.body.Bytes())))
		}
	}
	vr := viewRequest()
	sp := tr.begin("server.register_view", root, -1, "")
	status, _, err := h.post(vr.path, vr.body)
	tr.end(sp)
	if err != nil || status != http.StatusCreated {
		return fail(fmt.Errorf("register view: status %d %v: %s", status, err, clip(h.body.Bytes())))
	}
	if len(in.corpus) > 0 {
		sp := tr.begin("corpus.open", root, -1, "")
		err := h.srv.OpenCorpus(context.Background(), corpusDir)
		tr.end(sp)
		if err != nil {
			return fail(fmt.Errorf("open corpus: %w", err))
		}
	}
	var warmErr error
	first := make(map[string]bool)
	for _, r := range in.cycle {
		sp := int32(-1)
		if r.kind == kindQuery && !first[r.engine] {
			first[r.engine] = true
			sp = tr.begin("server.first_query", root, -1, r.engine)
		}
		status, _, err := h.post(r.path, r.body)
		tr.end(sp)
		if o := check(r, status, h.body.Bytes(), err); o.err != nil && warmErr == nil {
			warmErr = fmt.Errorf("warm-up %s: %w", describe(r), o.err)
		}
	}
	return h, time.Since(t0), warmErr
}

func describe(r *request) string {
	switch r.kind {
	case kindView:
		return "POST /views " + viewName
	case kindCollection:
		return fmt.Sprintf("POST %s %q", r.path, r.query)
	}
	on := ""
	if r.onView {
		on = " on " + viewName
	}
	return fmt.Sprintf("POST /query %s%s %q", r.engine, on, r.query)
}

// window is one timed pass over whole cycles of a workload's sequence.
type window struct {
	attempted, ok int64
	failures      []string // the first few
	cycleLen      int
	lat           []time.Duration
	latP50        time.Duration
	slices        []slice
	rt            rtStats
	counts        counts
	traced        []tracedReq // traced windows only
	statesBuilt   int64       // NFA states of the plans the replay built
}

// slice is a stretch of whole cycles lasting at least sliceLen; rates are
// reported as medians over a window's slices, so a burst of interference
// from outside the process moves one slice, not the figure.
type slice struct {
	requests     int64
	elapsed, cpu time.Duration
}

const sliceLen = time.Second

func (w *window) record(r *request, o outcome, lat time.Duration) {
	w.attempted++
	w.lat = append(w.lat, lat)
	w.counts.add(r, o)
	if o.err == nil {
		w.ok++
	} else if len(w.failures) < 5 {
		w.failures = append(w.failures, fmt.Sprintf("%s: %v", describe(r), o.err))
	}
}

// run sends whole cycles until at least seconds have passed and at least
// minRequests requests were sent. Without a tracer it sends each request
// exactly once; with one, it also replays each in-process layer by layer
// (see traceOne).
func (h *harness) run(cycle []*request, seconds float64, minRequests int64, tr *tracer) *window {
	// Room for every latency of a long window, allocated up front so the
	// client's bookkeeping does not grow the heap while it is timed.
	w := &window{cycleLen: len(cycle), lat: make([]time.Duration, 0, 1<<17)}
	limit := time.Duration(seconds * float64(time.Second))
	cache0 := h.srv.Cache().Stats()
	rt0, t0 := readRuntime(), time.Now()
	sl := slice{}
	slStart, slCPU := t0, cpuTime()
	for {
		for _, r := range cycle {
			if tr == nil {
				status, lat, err := h.post(r.path, r.body)
				w.record(r, check(r, status, h.body.Bytes(), err), lat)
				continue
			}
			h.traceOne(w, r, tr)
		}
		w.counts.cycles++
		sl.requests += int64(len(cycle))
		if now := time.Since(slStart); now >= sliceLen {
			cpu := cpuTime()
			sl.elapsed, sl.cpu = now, cpu-slCPU
			w.slices = append(w.slices, sl)
			sl, slStart, slCPU = slice{}, slStart.Add(now), cpu
		}
		if time.Since(t0) >= limit && w.attempted >= minRequests {
			break
		}
	}
	w.rt = readRuntime().sub(rt0)
	if sl.requests > 0 {
		// The last, short slice joins the one before it.
		sl.elapsed, sl.cpu = time.Since(slStart), cpuTime()-slCPU
		if n := len(w.slices); n > 0 {
			w.slices[n-1].requests += sl.requests
			w.slices[n-1].elapsed += sl.elapsed
			w.slices[n-1].cpu += sl.cpu
		} else {
			w.slices = append(w.slices, sl)
		}
	}
	if tr == nil {
		cache1 := h.srv.Cache().Stats()
		w.counts.hits = cache1.Hits - cache0.Hits
		w.counts.misses = cache1.Misses - cache0.Misses
		w.counts.evictions = cache1.Evictions - cache0.Evictions
	}
	return w
}

// tracedReq is what the traced pass keeps per request besides its spans.
type tracedReq struct {
	r                            *request
	hit, miss                    bool // plan-cache outcome of the HTTP request
	root, handler, decode, query int32
	encode                       int32
	wall, cpu                    time.Duration // collection requests
}

var sigma0 = hospital.Sigma0()

// traceOne sends r exactly as the untraced pass does, as the root span
// "request", then replays it in-process one layer at a time: the handler
// into a recorder, then JSON decode, Server.Query and JSON encode, and
// for a request that missed the plan cache the plan pipeline: parse, then
// rewrite (view queries) or compile (direct queries), then prepare. Every
// replayed answer is checked too.
func (h *harness) traceOne(w *window, r *request, tr *tracer) {
	id := int64(w.attempted)
	route := routeOf(r)
	t := tracedReq{r: r, handler: -1, decode: -1, query: -1, encode: -1}
	cache0 := h.srv.Cache().Stats()
	cpu0 := cpuTime()
	t.root = tr.begin("request", -1, id, route)
	status, lat, err := h.post(r.path, r.body)
	tr.end(t.root)
	t.wall, t.cpu = lat, cpuTime()-cpu0
	cache1 := h.srv.Cache().Stats()
	hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	w.counts.hits += hits
	w.counts.misses += misses
	w.counts.evictions += cache1.Evictions - cache0.Evictions
	t.hit, t.miss = hits > 0 && misses == 0, misses > 0
	o := check(r, status, h.body.Bytes(), err)
	if o.err == nil {
		o.err = h.replay(w, &t, id, route, tr)
	}
	w.traced = append(w.traced, t)
	w.record(r, o, lat)
}

func routeOf(r *request) string {
	switch r.kind {
	case kindView:
		return "views"
	case kindCollection:
		return "collection"
	}
	return "query"
}

func (h *harness) replay(w *window, t *tracedReq, id int64, route string, tr *tracer) error {
	r := t.r
	rec := httptest.NewRecorder()
	hr := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
	hr.Header.Set("Content-Type", "application/json")
	t.handler = tr.begin("server.handler", t.root, id, route)
	h.handler.ServeHTTP(rec, hr)
	tr.end(t.handler)
	if o := check(r, rec.Code, rec.Body.Bytes(), nil); o.err != nil {
		return fmt.Errorf("handler replay: %w", o.err)
	}
	switch r.kind {
	case kindCollection:
		var cq server.CollectionQueryRequest
		t.decode = tr.begin("server.decode", t.root, id, route)
		err := json.Unmarshal(r.body, &cq)
		tr.end(t.decode)
		return err
	case kindView:
		return nil
	}
	var q server.QueryRequest
	t.decode = tr.begin("server.decode", t.root, id, route)
	err := json.Unmarshal(r.body, &q)
	tr.end(t.decode)
	if err != nil {
		return err
	}
	t.query = tr.begin("server.query", t.root, id, r.engine)
	resp, err := h.srv.Query(context.Background(), q)
	tr.end(t.query)
	if err != nil {
		return fmt.Errorf("Server.Query replay: %w", err)
	}
	t.encode = tr.begin("server.encode", t.root, id, route)
	b, err := json.Marshal(resp)
	tr.end(t.encode)
	if o := check(r, http.StatusOK, b, err); o.err != nil {
		return fmt.Errorf("Server.Query replay: %w", o.err)
	}
	if !t.miss {
		return nil
	}
	sp := tr.begin("xpath.parse", t.root, id, "")
	pq, err := smoqe.ParseQuery(r.query)
	tr.end(sp)
	if err != nil {
		return err
	}
	var m *smoqe.MFA
	if r.onView {
		sp = tr.begin("rewrite.rewrite", t.root, id, "")
		m, err = smoqe.Rewrite(sigma0, pq)
	} else {
		sp = tr.begin("mfa.compile", t.root, id, "")
		m, err = smoqe.Compile(pq)
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("smoqe.prepare", t.root, id, "")
	_ = smoqe.PrepareMFA(m)
	tr.end(sp)
	w.statesBuilt += int64(m.NumStates())
	return nil
}
