package hype_test

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smoqe/internal/colstore"
	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

// assertParallelMatches runs both evaluation paths on fresh engines and
// demands exact agreement: the answers, their order, and every Stats
// counter. This is the contract parallel.go promises ("identical by
// construction"), so any drift is a bug, not noise.
func assertParallelMatches(t *testing.T, v variant, src string, m *mfa.MFA, root *xmltree.Node, workers int) {
	t.Helper()
	name := v.name
	seq, _ := evalAt(t, hype.New(m), root, v.indexed, hype.Options{})
	pst, _ := evalAt(t, hype.New(m), root, v.indexed, hype.Options{Workers: workers})
	if !reflect.DeepEqual(pst.IDs, seq.IDs) {
		t.Errorf("%s w=%d: query %q:\n got %v\nwant %v", name, workers, src, pst.IDs, seq.IDs)
	}
	if pst.Stats != seq.Stats {
		t.Errorf("%s w=%d: query %q: stats diverge:\n got %+v\nwant %+v", name, workers, src, pst.Stats, seq.Stats)
	}
	if pst.Shards > 0 && pst.Workers == 0 {
		t.Errorf("%s w=%d: query %q: %d shards but zero workers", name, workers, src, pst.Shards)
	}
}

func TestParallelMatchesSequentialOnSample(t *testing.T) {
	doc := hospital.SampleDocument()
	for _, src := range sourceQueries {
		m := mfa.MustCompile(xpath.MustParse(src))
		for _, v := range variants {
			for _, w := range []int{1, 4} {
				assertParallelMatches(t, v, src, m, doc.Root, w)
			}
		}
	}
}

func TestParallelMatchesSequentialOnGenerated(t *testing.T) {
	// A §7-style document: several departments (natural top-level shards)
	// with enough skew that domination splitting fires on some seeds.
	doc := datagen.Generate(datagen.DefaultConfig(3000))
	for _, src := range []string{
		"department/patient/pname",
		"//diagnosis",
		"department/patient[visit/treatment/medication/diagnosis/text()='heart disease']/pname",
		"department/patient/(parent/patient)*/pname",
		"department/patient[not(visit)]",
		hospital.RXB,
	} {
		m := mfa.MustCompile(xpath.MustParse(src))
		for _, v := range variants {
			assertParallelMatches(t, v, src, m, doc.Root, 4)
		}
	}
}

func TestParallelAtInteriorContext(t *testing.T) {
	doc := hospital.SampleDocument()
	dep := doc.Root.ElementChildren()[0]
	for _, src := range []string{"patient", "patient[visit/treatment/test]", "(patient | patient/parent/patient)/pname"} {
		m := mfa.MustCompile(xpath.MustParse(src))
		assertParallelMatches(t, variants[0], src, m, dep, 4)
	}
}

// TestParallelDominationSplit forces the single-dominating-shard shape: a
// root whose one element child holds everything. The planner must split
// through the chain instead of degenerating into one sequential shard,
// and the merge must decide filters at the spine nodes it split as the
// sequential pass does.
func TestParallelDominationSplit(t *testing.T) {
	doc := hospital.SampleDocument()
	// Rebuild the sample document under a chain of two singleton elements,
	// so the entire tree hangs off one child at each of the first two
	// levels.
	wrapped := xmltree.NewDocument("outer")
	inner := wrapped.AddElement(wrapped.Root, "inner")
	graft(wrapped, inner, doc.Root)

	// The filtered queries make the merge decide guards at spine nodes:
	// at inner (true, false and negated) and at the document root.
	for _, tc := range []struct {
		src     string
		answers int
	}{
		{"inner/hospital/department/patient/pname", 3},
		{"inner[hospital/department/patient/visit]/hospital/department/patient/pname", 3},
		{"inner[hospital/nosuch]/hospital/department/patient/pname", 0},
		{"inner[not(hospital/department)]/hospital/department/patient/pname", 0},
		{"inner/hospital[department/patient/visit/treatment/medication/diagnosis/text()='heart disease']/department/patient/pname", 3},
	} {
		m := mfa.MustCompile(xpath.MustParse(tc.src))
		seq := eval(t, hype.New(m), wrapped.Root, hype.Options{})
		pst := eval(t, hype.New(m), wrapped.Root, hype.Options{Workers: 4})
		if len(seq.IDs) != tc.answers {
			t.Errorf("%s: %d sequential answers, want %d", tc.src, len(seq.IDs), tc.answers)
		}
		if !reflect.DeepEqual(pst.IDs, seq.IDs) {
			t.Errorf("%s: got %v want %v", tc.src, pst.IDs, seq.IDs)
		}
		if pst.Stats != seq.Stats {
			t.Errorf("%s: stats diverge: got %+v want %+v", tc.src, pst.Stats, seq.Stats)
		}
		if pst.SpineNodes < 2 {
			t.Errorf("%s: SpineNodes = %d; the dominating chain should have been split", tc.src, pst.SpineNodes)
		}
		if pst.Shards < 2 {
			t.Errorf("%s: Shards = %d; splitting should expose the departments", tc.src, pst.Shards)
		}
		if strings.Contains(tc.src, "[") && pst.Stats.AFAEvaluations == 0 {
			t.Errorf("%s: no AFA evaluation; the filter was never decided", tc.src)
		}
	}
}

func TestParallelTaggedMatchesSequential(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(1500))
	queries := []string{hospital.XPA, hospital.XPB, "//diagnosis", "department/patient[not(visit)]", "nosuchlabel"}
	var ms []*mfa.MFA
	for _, src := range queries {
		ms = append(ms, mfa.MustCompile(xpath.MustParse(src)))
	}
	merged, err := mfa.Merge(ms)
	if err != nil {
		t.Fatal(err)
	}
	seq := eval(t, hype.New(merged), doc.Root, hype.Options{})
	pst := eval(t, hype.New(merged), doc.Root, hype.Options{Workers: 4})
	want, got := seq.TaggedIDs, pst.TaggedIDs
	if len(got) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("bucket %d (%q): got %v want %v", i, queries[i], got[i], want[i])
		}
	}
	if pst.Stats != seq.Stats {
		t.Errorf("stats diverge: got %+v want %+v", pst.Stats, seq.Stats)
	}
}

// graft copies the subtree rooted at src into dst under parent.
func graft(dst *xmltree.Document, parent *xmltree.Node, src *xmltree.Node) {
	if src.Kind == xmltree.Text {
		dst.AddText(parent, src.Data)
		return
	}
	n := dst.AddElement(parent, src.Label)
	for _, c := range src.Children {
		graft(dst, n, c)
	}
}

// countdownCtx reports Canceled after its Err budget is spent — a
// deterministic stand-in for a client that disconnects mid-evaluation.
// Err is polled concurrently from worker goroutines, hence the atomic.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(budget int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(budget)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestEvalCtxCancellation(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(3000))
	cd := colstore.FromTree(doc)
	total := doc.ComputeStats().Elements
	m := mfa.MustCompile(xpath.MustParse("//diagnosis"))

	// Already-cancelled context: no work at all.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	e := hype.New(m)
	if _, err := e.Eval(cancelled, cd, hype.Options{}); err == nil {
		t.Fatal("Eval with cancelled context returned nil error")
	}

	// Cancellation mid-run: the DFS must stop early, not finish the pass.
	e = hype.New(m)
	res, err := e.Eval(newCountdownCtx(3), cd, hype.Options{})
	if err == nil {
		t.Fatal("Eval ignored mid-run cancellation")
	}
	if res.IDs != nil {
		t.Errorf("cancelled run returned %d nodes; want none", len(res.IDs))
	}
	if res.Stats.VisitedElements >= total {
		t.Errorf("cancelled run visited all %d elements; cancellation did not abort the DFS", total)
	}
}

func TestParallelCancellation(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(3000))
	cd := colstore.FromTree(doc)
	total := doc.ComputeStats().Elements
	m := mfa.MustCompile(xpath.MustParse("//diagnosis"))

	// Already-cancelled context: refused before any shard runs.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	par := hype.Options{Workers: 4}
	if _, err := hype.New(m).Eval(cancelled, cd, par); err == nil {
		t.Fatal("parallel Eval with cancelled context returned nil error")
	}

	// Cancellation mid-run across workers.
	pst, err := hype.New(m).Eval(newCountdownCtx(20), cd, par)
	if err == nil {
		t.Fatal("parallel Eval ignored mid-run cancellation")
	}
	if pst.IDs != nil {
		t.Errorf("cancelled run returned %d nodes; want none", len(pst.IDs))
	}
	if pst.Stats.VisitedElements >= total {
		t.Errorf("cancelled run visited all %d elements", total)
	}

	// A real context.WithCancel fired from another goroutine must also
	// abort promptly (covers the Done/Err interplay the fake skips).
	ctx, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel2()
	}()
	big := colstore.FromTree(datagen.Generate(datagen.DefaultConfig(20000)))
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := hype.New(m).Eval(ctx, big, par); err != nil {
			return // cancelled, as required
		}
	}
	t.Fatal("parallel Eval kept completing despite cancelled context")
}
