package hype

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"smoqe/internal/colstore"
	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/mfa"
	"smoqe/internal/rewrite"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

// evalNodes is the answer set of a sequential, unlimited run at tree node
// n — over the columnar form of n's subtree, with the index of that form
// when indexed — mapped back to n's nodes. Such a run has no budget to
// exceed and a context that is never done, so it cannot fail.
func evalNodes(e *Engine, n *xmltree.Node, indexed bool) []*xmltree.Node {
	cd, nodes := colstore.FromNode(n)
	res := evalResult(e, cd, indexed)
	out := make([]*xmltree.Node, len(res.IDs))
	for i, id := range res.IDs {
		out[i] = nodes[id]
	}
	return out
}

func evalResult(e *Engine, cd *colstore.Document, indexed bool) Result {
	var opts Options
	if indexed {
		opts.Index = BuildIndex(cd)
	}
	res, err := e.Eval(context.Background(), cd, opts)
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
	first := evalNodes(e, doc.Root, false)
	if len(first) != 2 {
		t.Fatalf("expected 2 answers, got %d", len(first))
	}
	for i := 0; i < 10; i++ {
		got := evalNodes(e, doc.Root, i%2 == 1)
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
	if got := evalNodes(e, d, true); len(got) != 1 {
		t.Fatalf("at <d>: %d answers, want 1", len(got))
	}
	if got := evalNodes(e, doc.Root, false); len(got) != 2 {
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
	if got := evalNodes(yes, doc.Root, false); len(got) != 1 || got[0] != doc.Root {
		t.Errorf(".[b] at root: %v", xmltree.IDsOf(got))
	}
	no := New(mfa.MustCompile(xpath.MustParse(".[c]")))
	if got := evalNodes(no, doc.Root, false); len(got) != 0 {
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
	got := evalNodes(e, d.Root, false)
	if len(got) != 1 {
		t.Fatalf("(a)*[leaf] on a %d-deep chain: %d answers, want 1", depth, len(got))
	}
	if got[0] != cur {
		t.Error("wrong node selected")
	}
	// The descendant query selects the whole spine.
	m2 := mfa.MustCompile(xpath.MustParse("(a)*"))
	if got := evalNodes(New(m2), d.Root, false); len(got) != depth+1 {
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
	cd := colstore.FromTree(doc)
	s1 := evalResult(e, cd, false).Stats
	s2 := evalResult(e, cd, false).Stats
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
		for _, qsrc := range queries {
			m := mfa.MustCompile(xpath.MustParse(qsrc))
			want := evalNodes(New(m), doc.Root, false)
			got := evalNodes(New(m), doc.Root, true)
			if len(got) != len(want) {
				t.Errorf("doc %s query %q: opt %d vs hype %d", dsrc, qsrc, len(got), len(want))
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

// TestCloneConcurrent evaluates clones of one engine from many goroutines;
// run under -race this validates that clones share no mutable state.
func TestCloneConcurrent(t *testing.T) {
	doc, err := xmltree.ParseString(`<a><b><c>x</c></b><b><c>y</c></b><d><b><c>x</c></b></d></a>`)
	if err != nil {
		t.Fatal(err)
	}
	m := mfa.MustCompile(xpath.MustParse("(*)*/b[c/text()='x']"))
	base := New(m)
	cd := colstore.FromTree(doc)
	idx := BuildIndex(cd)
	run := func(e *Engine, j int) []int {
		opts := Options{Index: idx}
		if j%2 == 1 {
			opts = Options{Workers: 2}
		}
		res, err := e.Eval(context.Background(), cd, opts)
		if err != nil {
			panic(err)
		}
		return res.IDs
	}
	want := run(base.Clone(), 0)
	done := make(chan []int, 8)
	for i := 0; i < 8; i++ {
		e := base.Clone()
		go func() {
			var last []int
			for j := 0; j < 50; j++ {
				last = run(e, j)
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
	ix := BuildIndex(colstore.FromTree(doc))
	root := ix.TextBloom(0)
	doc.Walk(func(n *xmltree.Node) bool {
		if n.Kind == xmltree.Element {
			if b := ix.TextBloom(int32(n.ID)); root&b != b {
				t.Errorf("root bloom not a superset at %s", n.Path())
			}
			if txt := n.TextContent(); txt != "" {
				m := textMask(txt)
				if ix.TextBloom(int32(n.ID))&m != m {
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
	want := evalNodes(New(m), doc.Root, false)
	got := evalNodes(New(m), doc.Root, true)
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

// fakeNode is a NodeView with fixed text and position.
type fakeNode struct {
	text string
	pos  int
}

func (n fakeNode) TextContent() string { return n.text }
func (n fakeNode) ElemPos() int        { return n.pos }

// TestEvalMaskedMatchesEvalAtMasked checks the compiled AFA programs
// against mfa.AFA.EvalAtMasked, the AFA semantics, on the AFAs of random
// filter queries (plain and simplified): random same-node-closed member
// sets, random transition inputs and random text and positions.
func TestEvalMaskedMatchesEvalAtMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	labels := []string{"a", "b", "c"}
	texts := []string{"", "x", "y"}
	var genPath func(depth int) xpath.Path
	var genPred func(depth int) xpath.Pred
	genPath = func(depth int) xpath.Path {
		if depth <= 0 {
			if rng.Intn(3) == 0 {
				return xpath.Wildcard{}
			}
			return &xpath.Label{Name: labels[rng.Intn(len(labels))]}
		}
		switch rng.Intn(5) {
		case 0:
			return &xpath.Seq{Left: genPath(depth - 1), Right: genPath(depth - 1)}
		case 1:
			return &xpath.Union{Left: genPath(depth - 1), Right: genPath(depth - 1)}
		case 2:
			return &xpath.Star{Sub: genPath(depth - 1)}
		default:
			return &xpath.Filter{Path: genPath(depth - 1), Cond: genPred(depth - 1)}
		}
	}
	genPred = func(depth int) xpath.Pred {
		if depth <= 0 {
			return &xpath.Exists{Path: genPath(0)}
		}
		switch rng.Intn(6) {
		case 0:
			return &xpath.Not{Sub: genPred(depth - 1)}
		case 1:
			return &xpath.And{Left: genPred(depth - 1), Right: genPred(depth - 1)}
		case 2:
			return &xpath.Or{Left: genPred(depth - 1), Right: genPred(depth - 1)}
		case 3:
			return &xpath.TextEq{Path: genPath(depth - 1), Value: texts[rng.Intn(len(texts))]}
		case 4:
			return &xpath.PosEq{Path: genPath(depth - 1), K: 1 + rng.Intn(3)}
		default:
			return &xpath.Exists{Path: genPath(depth - 1)}
		}
	}
	afas := 0
	for iter := 0; iter < 300; iter++ {
		q := &xpath.Filter{Path: genPath(1), Cond: genPred(3)}
		m, err := mfa.Compile(q)
		if err != nil {
			t.Fatalf("compile %s: %v", q, err)
		}
		for _, mm := range []*mfa.MFA{m, mfa.Simplify(m)} {
			e := New(mm)
			for g, a := range mm.AFAs {
				afas++
				p := &e.afas[g]
				n := a.NumStates()
				for trial := 0; trial < 8; trial++ {
					member := make(nfaSet, p.words)
					for s := 0; s < n; s++ {
						if rng.Intn(3) == 0 {
							member.set(s)
						}
					}
					closeSameNode(a, member)
					trans := make([]bool, n)
					transSet := make(nfaSet, p.words)
					for s := range trans {
						if trans[s] = rng.Intn(2) == 0; trans[s] {
							transSet.set(s)
						}
					}
					node := fakeNode{text: texts[rng.Intn(len(texts))], pos: 1 + rng.Intn(3)}
					want := a.EvalAtMasked(node, trans, make([]bool, n), member)
					predTrue := make(nfaSet, p.words)
					for s := range a.States {
						if a.States[s].Kind == mfa.AFAFinal && a.States[s].Pred.Holds(node) {
							predTrue.set(s)
						}
					}
					got := make(nfaSet, p.words)
					p.evalMasked(transSet, member, predTrue, got)
					for s := 0; s < n; s++ {
						if got.has(s) != want[s] {
							t.Fatalf("query %s, AFA %d, state %d: compiled %v, EvalAtMasked %v\n%s",
								q, g, s, got.has(s), want[s], a)
						}
					}
				}
			}
		}
	}
	if afas == 0 {
		t.Fatal("no AFA generated")
	}
}

// closeSameNode closes member under the same-node edges of a (the kids of
// NOT, AND and OR states), independently of the compiled closure masks.
func closeSameNode(a *mfa.AFA, member nfaSet) {
	for changed := true; changed; {
		changed = false
		for s := range a.States {
			st := &a.States[s]
			if !member.has(s) || st.Kind == mfa.AFATrans || st.Kind == mfa.AFAFinal {
				continue
			}
			for _, k := range st.Kids {
				if !member.has(k) {
					member.set(k)
					changed = true
				}
			}
		}
	}
}

// TestProgramStaysImmutable: evaluation never writes the compiled program,
// which an engine shares with all its clones. Memo state belongs on the
// clone, whose pool the GC empties; state kept on the program would stay
// live for as long as the plan. The copy is a program built from a
// serialized round trip of the automaton, so it shares no memory with the
// engine's.
func TestProgramStaysImmutable(t *testing.T) {
	docs := []*colstore.Document{
		colstore.FromTree(hospital.SampleDocument()),
		colstore.FromTree(datagen.Generate(datagen.DefaultConfig(150))),
	}
	ixs := []*Index{BuildIndex(docs[0]), BuildIndex(docs[1])}
	machines := []*mfa.MFA{
		mfa.MustCompile(xpath.MustParse(hospital.XPB)),
		mfa.MustCompile(xpath.MustParse(hospital.RXC)),
		mfa.MustCompile(xpath.MustParse("//diagnosis")),
		rewrite.MustRewrite(hospital.Sigma0(), xpath.MustParse(hospital.QExample41)),
	}
	for mi, m := range machines {
		var buf bytes.Buffer
		if err := m.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		mc, err := mfa.ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		e := New(m)
		want := buildProgram(mc)
		if !reflect.DeepEqual(want, e.program) {
			t.Fatalf("machine %d: the copy differs before any evaluation", mi)
		}
		for i := range 50 {
			opts := Options{}
			if i/2%2 == 1 {
				opts.Index = ixs[i%2]
			}
			if i/4%2 == 1 {
				opts.Workers = 4
			}
			if _, err := e.Eval(context.Background(), docs[i%2], opts); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(want, e.program) {
			t.Errorf("machine %d: 50 evaluations changed the shared program", mi)
		}
	}
}
