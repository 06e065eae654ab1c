package hype

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"smoqe/internal/mfa"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

// evalNodes is a sequential, unlimited Eval's answer set. Such a run has no
// budget to exceed and a context that is never done, so it cannot fail.
func evalNodes(e *Engine, n *xmltree.Node) []*xmltree.Node {
	return evalResult(e, n).Nodes
}

func evalResult(e *Engine, n *xmltree.Node) Result {
	res, err := e.Eval(context.Background(), n, Options{})
	if err != nil {
		panic(err)
	}
	return res
}

// TestQuickBitsets checks the nfaSet/LabelSet bit operations against a
// map-based model.
func TestQuickBitsets(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 1 + rng.Intn(200)
		words := (size + 63) / 64
		s := make(nfaSet, words)
		model := map[int]bool{}
		for i := 0; i < 50; i++ {
			b := rng.Intn(size)
			s.set(b)
			model[b] = true
		}
		for b := 0; b < size; b++ {
			if s.has(b) != model[b] {
				return false
			}
		}
		// forEach visits exactly the set bits in ascending order.
		prev := -1
		count := 0
		okOrder := true
		s.forEach(func(i int) {
			if i <= prev || !model[i] {
				okOrder = false
			}
			prev = i
			count++
		})
		if !okOrder || count != len(model) {
			return false
		}
		// intersects agrees with the model.
		o := make(nfaSet, words)
		shared := false
		for i := 0; i < 10; i++ {
			b := rng.Intn(size)
			o.set(b)
			if model[b] {
				shared = true
			}
		}
		return s.intersects(o) == shared
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestEngineReuse runs the same engine repeatedly (exercising the buffer
// pools) and at different context nodes, expecting identical results.
func TestEngineReuse(t *testing.T) {
	doc, err := xmltree.ParseString(`<a><b><c>x</c></b><b><c>y</c></b><d><b><c>x</c></b></d></a>`)
	if err != nil {
		t.Fatal(err)
	}
	m := mfa.MustCompile(xpath.MustParse("(*)*/b[c/text()='x']"))
	e := New(m)
	first := evalNodes(e, doc.Root)
	if len(first) != 2 {
		t.Fatalf("expected 2 answers, got %d", len(first))
	}
	for i := 0; i < 10; i++ {
		got := evalNodes(e, doc.Root)
		if len(got) != len(first) {
			t.Fatalf("run %d: %d answers, want %d", i, len(got), len(first))
		}
		for j := range got {
			if got[j] != first[j] {
				t.Fatalf("run %d: answer %d differs", i, j)
			}
		}
	}
	// Interleave evaluations at different contexts.
	d := doc.Root.ElementChildren()[2]
	if got := evalNodes(e, d); len(got) != 1 {
		t.Fatalf("at <d>: %d answers, want 1", len(got))
	}
	if got := evalNodes(e, doc.Root); len(got) != 2 {
		t.Fatalf("back at root: %d answers, want 2", len(got))
	}
}

// TestGuardOnStartState: a filter on the context node itself guards the
// start state's ε-successor; the answer set must respect it.
func TestGuardOnStartState(t *testing.T) {
	doc, err := xmltree.ParseString(`<a><b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	yes := New(mfa.MustCompile(xpath.MustParse(".[b]")))
	if got := evalNodes(yes, doc.Root); len(got) != 1 || got[0] != doc.Root {
		t.Errorf(".[b] at root: %v", xmltree.IDsOf(got))
	}
	no := New(mfa.MustCompile(xpath.MustParse(".[c]")))
	if got := evalNodes(no, doc.Root); len(got) != 0 {
		t.Errorf(".[c] at root must be empty, got %v", xmltree.IDsOf(got))
	}
}

// TestDeepChain exercises recursion depth and the cans construction on a
// long spine.
func TestDeepChain(t *testing.T) {
	d := xmltree.NewDocument("a")
	cur := d.Root
	const depth = 2000
	for i := 0; i < depth; i++ {
		cur = d.AddElement(cur, "a")
	}
	d.AddElement(cur, "leaf")
	m := mfa.MustCompile(xpath.MustParse("(a)*[leaf]"))
	e := New(m)
	got := evalNodes(e, d.Root)
	if len(got) != 1 {
		t.Fatalf("(a)*[leaf] on a %d-deep chain: %d answers, want 1", depth, len(got))
	}
	if got[0] != cur {
		t.Error("wrong node selected")
	}
	// The descendant query selects the whole spine.
	m2 := mfa.MustCompile(xpath.MustParse("(a)*"))
	if got := evalNodes(New(m2), d.Root); len(got) != depth+1 {
		t.Errorf("(a)*: %d answers, want %d", len(got), depth+1)
	}
}

// TestStatsResetBetweenRuns: stats reflect only their own run.
func TestStatsResetBetweenRuns(t *testing.T) {
	doc, err := xmltree.ParseString(`<a><b/><b/><b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	e := New(mfa.MustCompile(xpath.MustParse("b")))
	s1 := evalResult(e, doc.Root).Stats
	s2 := evalResult(e, doc.Root).Stats
	if s1 != s2 {
		t.Errorf("stats differ across identical runs: %+v vs %+v", s1, s2)
	}
	if s1.VisitedElements != 4 {
		t.Errorf("visited = %d, want 4", s1.VisitedElements)
	}
}

// TestAliveUnderSoundness: for random small documents and queries, OptHyPE
// must return exactly what HyPE returns (the liveness prune may only skip
// genuinely dead subtrees).
func TestAliveUnderSoundness(t *testing.T) {
	docs := []string{
		`<a><b><c/></b><b><d/></b></a>`,
		`<a><a><a><b/></a></a><c/></a>`,
		`<a><b><b><c>x</c></b></b><d><c>y</c></d></a>`,
	}
	queries := []string{
		"b/c", "(a)*/b", "b[c]", "b[not(c)]", "*[c/text()='y']",
		"(*)*/c", "a/a/b", "b[c]/c | d/c",
	}
	for _, dsrc := range docs {
		doc, err := xmltree.ParseString(dsrc)
		if err != nil {
			t.Fatal(err)
		}
		for _, both := range []bool{false, true} {
			idx := BuildIndex(doc, both)
			for _, qsrc := range queries {
				m := mfa.MustCompile(xpath.MustParse(qsrc))
				want := evalNodes(New(m), doc.Root)
				got := evalNodes(NewOpt(m, idx), doc.Root)
				if len(got) != len(want) {
					t.Errorf("doc %s query %q compress=%v: opt %d vs hype %d",
						dsrc, qsrc, both, len(got), len(want))
					continue
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("doc %s query %q: node %d differs", dsrc, qsrc, i)
					}
				}
			}
		}
	}
}

// TestCloneConcurrent evaluates clones of one engine from many goroutines;
// run under -race this validates that clones share no mutable state.
func TestCloneConcurrent(t *testing.T) {
	doc, err := xmltree.ParseString(`<a><b><c>x</c></b><b><c>y</c></b><d><b><c>x</c></b></d></a>`)
	if err != nil {
		t.Fatal(err)
	}
	m := mfa.MustCompile(xpath.MustParse("(*)*/b[c/text()='x']"))
	base := NewOpt(m, BuildIndex(doc, true))
	want := evalNodes(base.Clone(), doc.Root)
	done := make(chan []*xmltree.Node, 8)
	for i := 0; i < 8; i++ {
		e := base.Clone()
		go func() {
			var last []*xmltree.Node
			for j := 0; j < 50; j++ {
				last = evalNodes(e, doc.Root)
			}
			done <- last
		}()
	}
	for i := 0; i < 8; i++ {
		got := <-done
		if len(got) != len(want) {
			t.Fatalf("concurrent clone returned %d answers, want %d", len(got), len(want))
		}
	}
}

// TestTextMaskProperties: the Bloom mask has 1–2 bits and is deterministic;
// the index's per-node blooms are supersets of their descendants'.
func TestTextMaskProperties(t *testing.T) {
	if textMask("heart disease") != textMask("heart disease") {
		t.Error("mask not deterministic")
	}
	for _, s := range []string{"", "a", "heart disease", "flu", "日本語"} {
		m := textMask(s)
		ones := 0
		for i := 0; i < 64; i++ {
			if m&(1<<i) != 0 {
				ones++
			}
		}
		if ones < 1 || ones > 2 {
			t.Errorf("textMask(%q) has %d bits set", s, ones)
		}
	}
	doc, err := xmltree.ParseString(`<a><b>x</b><c><d>y</d></c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := BuildIndex(doc, false)
	root := ix.TextBloom(doc.Root)
	doc.Walk(func(n *xmltree.Node) bool {
		if n.Kind == xmltree.Element {
			if b := ix.TextBloom(n); root&b != b {
				t.Errorf("root bloom not a superset at %s", n.Path())
			}
			if txt := n.TextContent(); txt != "" {
				m := textMask(txt)
				if ix.TextBloom(n)&m != m {
					t.Errorf("bloom at %s misses its own text %q", n.Path(), txt)
				}
			}
		}
		return true
	})
}

// TestEmptyTextPredicateNotPruned: text()=” matches nodes without text
// children; the bloom (which only fingerprints nonempty values) must not
// refute it.
func TestEmptyTextPredicateNotPruned(t *testing.T) {
	doc, err := xmltree.ParseString(`<a><b><c></c></b><b><c>full</c></b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	m := mfa.MustCompile(xpath.MustParse("b[c/text()='']"))
	want := evalNodes(New(m), doc.Root)
	got := evalNodes(NewOpt(m, BuildIndex(doc, false)), doc.Root)
	if len(want) != 1 {
		t.Fatalf("reference answers = %d, want 1", len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("OptHyPE pruned a text()='' match: %d vs %d", len(got), len(want))
	}
}

func TestPruneRate(t *testing.T) {
	s := Stats{VisitedElements: 25}
	if got := s.PruneRate(100); got != 0.75 {
		t.Errorf("PruneRate = %v, want 0.75", got)
	}
	if got := s.PruneRate(0); got != 0 {
		t.Errorf("PruneRate(0) = %v, want 0", got)
	}
}
