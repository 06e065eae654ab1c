package server

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"smoqe"
	"smoqe/internal/datagen"
	"smoqe/internal/failpoint"
	"smoqe/internal/hospital"
	"smoqe/internal/refeval"
	"smoqe/internal/xpath"
)

func newTestServer(t *testing.T) *Server {
	t.Helper()
	s := New(Config{CacheSize: 32})
	if _, err := s.Registry().RegisterDocument("hospital", hospital.SampleDocument()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterView("sigma0", hospital.Sigma0()); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestQueryMatchesReference(t *testing.T) {
	s := newTestServer(t)
	doc := hospital.SampleDocument()
	for _, src := range []string{hospital.XPA, "//diagnosis", "department/patient[not(visit)]"} {
		want := fmt.Sprint(smoqe.IDsOf(refeval.Eval(xpath.MustParse(src), doc.Root)))
		for _, engine := range []EngineKind{EngineHyPE, EngineOptHyPE} {
			resp, err := s.Query(context.Background(), QueryRequest{Doc: "hospital", Query: src, Engine: engine})
			if err != nil {
				t.Fatalf("%s (%s): %v", src, engine, err)
			}
			if got := fmt.Sprint(resp.IDs); got != want {
				t.Errorf("%s (%s): got %s, want %s", src, engine, got, want)
			}
		}
	}
}

func TestQueryOnViewMatchesAnswerOnView(t *testing.T) {
	s := newTestServer(t)
	v := hospital.Sigma0()
	doc := hospital.SampleDocument()
	q := xpath.MustParse(hospital.QExample11)
	want, err := smoqe.AnswerOnView(v, q, doc)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Query(context.Background(), QueryRequest{
		Doc: "hospital", View: "sigma0", Query: hospital.QExample11, Paths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(resp.IDs) != fmt.Sprint(smoqe.IDsOf(want)) {
		t.Errorf("view query: got %v, want %v", resp.IDs, smoqe.IDsOf(want))
	}
	if len(resp.Paths) != resp.Count {
		t.Errorf("paths %d != count %d", len(resp.Paths), resp.Count)
	}
}

func TestPlanCacheHitsOnRepeat(t *testing.T) {
	s := newTestServer(t)
	req := QueryRequest{Doc: "hospital", View: "sigma0", Query: hospital.QExample11}
	first, err := s.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first request must be a cache miss")
	}
	for i := 0; i < 3; i++ {
		resp, err := s.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.CacheHit {
			t.Errorf("repeat %d must be a cache hit", i)
		}
	}
	st := s.Stats()
	if st.Cache.Hits != 3 || st.Cache.Misses != 1 {
		t.Errorf("cache counters: %+v, want 3 hits / 1 miss", st.Cache)
	}
	if st.Requests != 4 || st.Failures != 0 {
		t.Errorf("request counters: %+v", st)
	}
	if st.VisitedElements <= 0 {
		t.Errorf("aggregated VisitedElements = %d, want > 0", st.VisitedElements)
	}
}

func TestQueryErrors(t *testing.T) {
	s := newTestServer(t)
	cases := []QueryRequest{
		{Doc: "hospital", Query: ""},
		{Doc: "nosuchdoc", Query: "a"},
		{Doc: "hospital", View: "nosuchview", Query: "a"},
		{Doc: "hospital", Query: "][broken"},
		{Doc: "hospital", Query: "a", Engine: "warp"},
	}
	for _, req := range cases {
		if _, err := s.Query(context.Background(), req); err == nil {
			t.Errorf("request %+v: want error", req)
		}
	}
	if f := s.Stats().Failures; f != int64(len(cases)) {
		t.Errorf("failures = %d, want %d", f, len(cases))
	}
}

// TestViewReplacementInvalidatesPlans: re-registering a view must drop its
// cached plans — answers follow the new definition immediately.
func TestViewReplacementInvalidatesPlans(t *testing.T) {
	s := New(Config{CacheSize: 16})
	if _, err := s.LoadDocument(context.Background(), "d", strings.NewReader(`<r><a>x</a><b>y</b></r>`), false); err != nil {
		t.Fatal(err)
	}
	srcDTD := `dtd src { root r; r -> a*, b*; a -> #text; b -> #text; }`
	tgtDTD := `dtd tgt { root r; r -> v*; v -> #text; }`
	if _, err := s.RegisterViewSpec("w", `view w { r/v = a; }`, srcDTD, tgtDTD); err != nil {
		t.Fatal(err)
	}
	req := QueryRequest{Doc: "d", View: "w", Query: "v"}
	r1, err := s.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Count != 1 {
		t.Fatalf("first definition: count=%d, want 1 (the a element)", r1.Count)
	}
	// Replace the view: v now selects both a and b elements.
	if _, err := s.RegisterViewSpec("w", `view w { r/v = a|b; }`, srcDTD, tgtDTD); err != nil {
		t.Fatal(err)
	}
	r2, err := s.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r2.CacheHit {
		t.Error("plan for replaced view must not be served from cache")
	}
	if r2.Count != 2 {
		t.Errorf("new definition: count=%d, want 2", r2.Count)
	}
}

// TestViewSwapRacingPlanBuild: a view re-registered while a plan over its
// old definition is still being built must not be answered by that plan.
// The build finishes after the swap dropped the view's cached plans; keyed
// by view name alone, it would be inserted and then hit by every later
// request on the new definition.
func TestViewSwapRacingPlanBuild(t *testing.T) {
	s := New(Config{})
	if _, err := s.Registry().RegisterDocument("hospital", hospital.SampleDocument()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterView("v", smoqe.IdentityView(hospital.DocDTD())); err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable(failpoint.SiteServerPlanBuild, "sleep:300ms"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()
	req := QueryRequest{Doc: "hospital", View: "v", Query: "patient"}
	first := make(chan error, 1)
	go func() {
		_, err := s.Query(context.Background(), req)
		first <- err
	}()
	// Swap only once the old definition's build is in flight.
	for {
		s.cache.mu.Lock()
		building := len(s.cache.building)
		s.cache.mu.Unlock()
		if building > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.RegisterView("v", hospital.Sigma0()); err != nil {
		t.Fatal(err)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	failpoint.DisableAll()

	resp, err := s.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != 2 || resp.CacheHit {
		t.Errorf("after the swap: count=%d cache_hit=%v, want σ0's 2 patients from a fresh plan", resp.Count, resp.CacheHit)
	}
}

// TestConcurrentQueriesAndRegistration is the -race workhorse: goroutines
// hammer shared prepared plans on shared documents while other goroutines
// keep registering fresh documents and views.
func TestConcurrentQueriesAndRegistration(t *testing.T) {
	s := New(Config{CacheSize: 8})
	base := datagen.Generate(datagen.DefaultConfig(60))
	if _, err := s.Registry().RegisterDocument("base", base); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterView("sigma0", hospital.Sigma0()); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"//diagnosis",
		"department/patient[visit]/pname",
		"//patient[visit/treatment/medication/diagnosis/text()='heart disease']",
		"department/patient[not(visit)]",
	}
	wantIDs := make([]string, len(queries))
	for i, src := range queries {
		resp, err := s.Query(context.Background(), QueryRequest{Doc: "base", Query: src})
		if err != nil {
			t.Fatal(err)
		}
		wantIDs[i] = fmt.Sprint(resp.IDs)
	}
	wantView, err := s.Query(context.Background(), QueryRequest{Doc: "base", View: "sigma0", Query: hospital.QExample11})
	if err != nil {
		t.Fatal(err)
	}

	const readers = 8
	const writers = 2
	const rounds = 20
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				qi := (g + i) % len(queries)
				engine := EngineHyPE
				if i%2 == 1 {
					engine = EngineOptHyPE
				}
				resp, err := s.Query(context.Background(), QueryRequest{Doc: "base", Query: queries[qi], Engine: engine})
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				if got := fmt.Sprint(resp.IDs); got != wantIDs[qi] {
					t.Errorf("reader %d query %q: %s != %s", g, queries[qi], got, wantIDs[qi])
					return
				}
				vresp, err := s.Query(context.Background(), QueryRequest{Doc: "base", View: "sigma0", Query: hospital.QExample11})
				if err != nil {
					t.Errorf("reader %d view query: %v", g, err)
					return
				}
				if fmt.Sprint(vresp.IDs) != fmt.Sprint(wantView.IDs) {
					t.Errorf("reader %d view query drifted", g)
					return
				}
			}
		}(g)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("scratch-%d-%d", w, i)
				doc := datagen.Generate(datagen.DefaultConfig(10 + i))
				if _, err := s.Registry().RegisterDocument(name, doc); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if _, err := s.Query(context.Background(), QueryRequest{Doc: name, Query: "//zip"}); err != nil {
					t.Errorf("writer %d query on %s: %v", w, name, err)
					return
				}
				if _, err := s.RegisterView(fmt.Sprintf("v-%d", w), hospital.Sigma0()); err != nil {
					t.Errorf("writer %d view: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := s.Stats()
	if st.Failures != 0 {
		t.Errorf("failures = %d, want 0", st.Failures)
	}
	if st.Cache.Hits == 0 {
		t.Error("expected cache hits under repeated load")
	}
}

// TestRegistrationIsCopyOnRegister: mutating a document after registering
// it must not change what the server evaluates.
func TestRegistrationIsCopyOnRegister(t *testing.T) {
	s := New(Config{})
	doc, err := smoqe.ParseDocumentString(`<r><a/><a/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().RegisterDocument("d", doc); err != nil {
		t.Fatal(err)
	}
	// Caller keeps mutating its tree; the registered copy must not move.
	doc.AddElement(doc.Root, "a")
	resp, err := s.Query(context.Background(), QueryRequest{Doc: "d", Query: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != 2 {
		t.Errorf("count = %d, want 2 (mutation after registration leaked in)", resp.Count)
	}
}

func TestRequestTimeout(t *testing.T) {
	s := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired
	_, err := s.Query(ctx, QueryRequest{Doc: "hospital", Query: "//diagnosis"})
	if err == nil {
		t.Fatal("want error from canceled context")
	}
}

func TestServeGracefulShutdown(t *testing.T) {
	s := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, "127.0.0.1:0", time.Second) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after context cancellation")
	}
}

// TestServeListenerErrorSurfaces pins the guard.Protect wiring around the
// listener goroutine: a ListenAndServe failure must come back through
// Serve as an ordinary error (and a panic as a *PanicError), never unwind
// the goroutine past the error channel.
func TestServeListenerErrorSurfaces(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	s := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln.Addr().String(), time.Second) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Serve on an occupied address returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not surface the listener error")
	}
}
