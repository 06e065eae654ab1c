package hype_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

// golden is the parsed pin: its header commit, the pinned evaluations and
// the pinned traces.
type golden struct {
	commit string
	cases  []goldenCase
	traces []goldenTrace
}

// loadGolden reads goldenFile. Its first line names the commit whose
// interpreted pass recorded it; every other line is a case or a trace.
func loadGolden(t *testing.T) golden {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var g golden
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var line struct {
			Commit string            `json:"commit"`
			Events []hype.TraceEvent `json:"events"`
			goldenCase
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		switch {
		case line.Commit != "":
			g.commit = line.Commit
		case line.Events != nil:
			g.traces = append(g.traces, goldenTrace{Query: line.Query, Index: line.Index, Events: line.Events})
		default:
			g.cases = append(g.cases, line.goldenCase)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if g.commit == "" || len(g.cases) == 0 || len(g.traces) == 0 {
		t.Fatalf("%s: header, cases or traces missing", goldenFile)
	}
	return g
}

// goldenConfig is one configuration the pass must reproduce the pin in.
type goldenConfig struct {
	name    string
	workers int
	tinyDFA bool // hybrid cache of cap 1: a flush on nearly every insertion
}

var goldenConfigs = []goldenConfig{{"sequential", 0, false}, {"workers=4", 4, false}, {"cache cap 1", 0, true}}

// TestCompiledMatchesInterpreted checks the one pass against the answers
// and Stats the interpreted pointer pass recorded in the pin, for every
// pinned case, with and without the index, sequentially, shard-parallel
// and with a one-entry hybrid cache. It also pins, explicitly, a node
// whose states have transitions only on labels the document lacks: its
// children are still walked, and each counts as a "no-transition" prune.
func TestCompiledMatchesInterpreted(t *testing.T) {
	g := loadGolden(t)
	docs := make(map[string]*colstore.Document)
	for _, d := range goldenDocs() {
		docs[d.name] = colstore.FromTree(d.doc)
	}
	queries := make(map[string]*mfa.MFA)
	for _, q := range goldenQueries() {
		queries[q.name] = q.m
	}
	indexes := make(map[*colstore.Document]*hype.Index)
	for _, gc := range g.cases {
		cd, m := docs[gc.Doc], queries[gc.Query]
		if gc.XML != "" {
			doc, err := xmltree.ParseString(gc.XML)
			if err != nil {
				t.Fatal(err)
			}
			cd, m = colstore.FromTree(doc), mfa.MustCompile(xpath.MustParse(gc.Query))
		}
		if cd == nil || m == nil {
			t.Fatalf("%s %q: unknown document or query", gc.Doc, gc.Query)
		}
		var opts hype.Options
		if gc.Index {
			if indexes[cd] == nil {
				indexes[cd] = hype.BuildIndex(cd)
			}
			opts.Index = indexes[cd]
		}
		for _, c := range goldenConfigs {
			e := hype.New(m)
			if c.tinyDFA {
				e.SetCompiledCacheCap(1)
			}
			opts.Workers = c.workers
			res := colEval(t, e, cd, opts)
			got := newGoldenCase(gc.Doc, gc.Query, gc.Index, res.Stats, res.IDs)
			got.XML = gc.XML
			if !reflect.DeepEqual(got, gc) {
				t.Errorf("%s, %s, index=%v, %q:\n got %+v\nwant %+v", c.name, gc.Doc, gc.Index, gc.Query, got, gc)
			}
		}
	}

	doc, err := xmltree.ParseString(`<r><a><c/><c/></a><d/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	cd := colstore.FromTree(doc)
	m := mfa.MustCompile(xpath.MustParse("a/b"))
	for _, tc := range []struct {
		ix   *hype.Index
		want hype.Stats
	}{
		{nil, hype.Stats{VisitedElements: 2, SkippedSubtrees: 3, CansVertices: 3, CansEdges: 2}},
		{hype.BuildIndex(cd), hype.Stats{VisitedElements: 1, SkippedSubtrees: 2, SkippedElements: 4, CansVertices: 1}},
	} {
		if got := colEval(t, hype.New(m), cd, hype.Options{Index: tc.ix}).Stats; got != tc.want {
			t.Errorf("a/b, index=%v: Stats = %+v, want %+v", tc.ix != nil, got, tc.want)
		}
	}
}

// TestCompiledTraceIdentical: a traced run records, event for event, the
// decision log the interpreted pass recorded in the pin, with the
// compiled-layer statistics attached.
func TestCompiledTraceIdentical(t *testing.T) {
	g := loadGolden(t)
	doc := hospital.SampleDocument()
	cd := colstore.FromTree(doc)
	ix := hype.BuildIndex(cd)
	for _, gt := range g.traces {
		opts := hype.Options{Trace: 1 << 20}
		if gt.Index {
			opts.Index = ix
		}
		res := colEval(t, hype.New(mfa.MustCompile(xpath.MustParse(gt.Query))), cd, opts)
		if !reflect.DeepEqual(res.Trace.Events, gt.Events) {
			t.Errorf("%q index=%v: trace differs from the pin (%d vs %d events)", gt.Query, gt.Index, len(res.Trace.Events), len(gt.Events))
		}
		if res.Trace.Compiled == nil || !res.Trace.Compiled.Enabled {
			t.Errorf("%q: trace missing CompiledStats", gt.Query)
		}
	}
}

// TestPruningTable pins the §7 in-text pruning averages (`benchfig
// -pruning`): over the six Fig. 8/9 queries on the 3,000-patient document,
// HyPE prunes 79.0 % of the elements on average and OptHyPE 88.8 % — in
// the pin and in the pass.
func TestPruningTable(t *testing.T) {
	g := loadGolden(t)
	doc := goldenDocs()[2]
	cd := colstore.FromTree(doc.doc)
	ix := hype.BuildIndex(cd)
	total := cd.Stats().Elements
	pinned := make(map[string]hype.Stats)
	for _, gc := range g.cases {
		if gc.Doc == doc.name {
			pinned[fmt.Sprint(gc.Query, gc.Index)] = gc.Stats
		}
	}
	queries := []string{hospital.XPA, hospital.XPB, hospital.XPC, hospital.RXA, hospital.RXB, hospital.RXC}
	for _, tc := range []struct {
		name  string
		index *hype.Index
		want  string
	}{{"HyPE", nil, "79.0"}, {"OptHyPE", ix, "88.8"}} {
		var sumPinned, sumRun float64
		for _, src := range queries {
			st, ok := pinned[fmt.Sprint(src, tc.index != nil)]
			if !ok {
				t.Fatalf("%s: %q not pinned", tc.name, src)
			}
			sumPinned += 100 * st.PruneRate(total)
			run := colEval(t, hype.New(mfa.MustCompile(xpath.MustParse(src))), cd, hype.Options{Index: tc.index}).Stats
			sumRun += 100 * run.PruneRate(total)
		}
		n := float64(len(queries))
		if got := fmt.Sprintf("%.1f", sumPinned/n); got != tc.want {
			t.Errorf("%s: pinned average %s %%, want %s %%", tc.name, got, tc.want)
		}
		if got := fmt.Sprintf("%.1f", sumRun/n); got != tc.want {
			t.Errorf("%s: average %s %%, want %s %%", tc.name, got, tc.want)
		}
	}
}
