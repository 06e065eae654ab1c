package hype_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/datagen"
	"smoqe/internal/failpoint"
	"smoqe/internal/guard"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/refeval"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

// An engine clone keeps the buffers of its last run and the next run
// starts from them truncated. These tests pin that reuse is invisible:
// answers and Stats never depend on what the clone ran before, and a
// Result never shares memory with a later run.

// reuseDoc is one document of the reuse tests in both forms.
type reuseDoc struct {
	name string
	tree *xmltree.Document
	cd   *colstore.Document
	ix   *hype.Index
}

func newReuseDoc(name string, doc *xmltree.Document) reuseDoc {
	cd := colstore.FromTree(doc)
	return reuseDoc{name, doc, cd, hype.BuildIndex(cd)}
}

// refIDs is refeval's answer to src at doc's root, as preorder ids.
func refIDs(src string, doc *xmltree.Document) []int {
	return ids(refeval.Eval(xpath.MustParse(src), doc.Root))
}

// TestBufferReuseAcrossDocuments: one engine per query and mode runs over
// the 300-patient document, the sample document and the 300-patient
// document again; every run's answers and Stats equal a fresh engine's,
// and its answers refeval's.
func TestBufferReuseAcrossDocuments(t *testing.T) {
	big := newReuseDoc("datagen-300", datagen.Generate(datagen.DefaultConfig(300)))
	sample := newReuseDoc("sample", hospital.SampleDocument())
	for _, src := range sourceQueries {
		m := mfa.MustCompile(xpath.MustParse(src))
		want := map[string][]int{big.name: refIDs(src, big.tree), sample.name: refIDs(src, sample.tree)}
		for _, indexed := range []bool{false, true} {
			e := hype.New(m)
			for _, d := range []reuseDoc{big, sample, big} {
				var opts hype.Options
				if indexed {
					opts.Index = d.ix
				}
				got := colEval(t, e, d.cd, opts)
				fresh := colEval(t, hype.New(m), d.cd, opts)
				if !slices.Equal(got.IDs, want[d.name]) {
					t.Errorf("%s, index=%v, %q: %d answers, refeval %d", d.name, indexed, src, len(got.IDs), len(want[d.name]))
				}
				if !slices.Equal(got.IDs, fresh.IDs) || got.Stats != fresh.Stats {
					t.Errorf("%s, index=%v, %q: reused engine %+v, fresh engine %+v", d.name, indexed, src, got.Stats, fresh.Stats)
				}
			}
		}
	}
}

// TestBufferReuseResultsDoNotAlias: a Result held from one run is unchanged
// by the next run on the same engine, which overwrites the clone's buffers
// — for single queries and for the TaggedIDs of batch automata, guarded
// and guard-free.
func TestBufferReuseResultsDoNotAlias(t *testing.T) {
	big := newReuseDoc("datagen-300", datagen.Generate(datagen.DefaultConfig(300)))
	sample := newReuseDoc("sample", hospital.SampleDocument())
	var machines []*mfa.MFA
	for _, batch := range [][]string{
		{hospital.XPB},
		{"//diagnosis"},
		{hospital.XPB, "//diagnosis", hospital.RXC, "//patient"},
		{"//diagnosis", "//patient", "department/patient/pname"},
	} {
		var ms []*mfa.MFA
		for _, src := range batch {
			ms = append(ms, mfa.MustCompile(xpath.MustParse(src)))
		}
		m := ms[0]
		if len(ms) > 1 {
			var err error
			if m, err = mfa.Merge(ms); err != nil {
				t.Fatal(err)
			}
		}
		machines = append(machines, m)
	}
	for i, m := range machines {
		for _, workers := range []int{0, 2} {
			e := hype.New(m)
			held := colEval(t, e, big.cd, hype.Options{Workers: workers})
			ids, tagged := slices.Clone(held.IDs), make([][]int, len(held.TaggedIDs))
			for tag, tids := range held.TaggedIDs {
				tagged[tag] = slices.Clone(tids)
			}
			if len(ids) == 0 {
				t.Fatalf("machine %d: no answers; the test checks nothing", i)
			}
			colEval(t, e, sample.cd, hype.Options{Workers: workers})
			colEval(t, e, big.cd, hype.Options{Index: big.ix, Workers: workers})
			if !slices.Equal(held.IDs, ids) || !reflect.DeepEqual(held.TaggedIDs, tagged) {
				t.Errorf("machine %d, workers=%d: a held Result changed when the engine ran again", i, workers)
			}
		}
	}
}

// TestBufferReuseAfterAbort: a run aborted by a budget or a cancelled
// context leaves the clone's buffers half-filled; the next run on the same
// engine must still give the right answers and Stats.
func TestBufferReuseAfterAbort(t *testing.T) {
	big := newReuseDoc("datagen-300", datagen.Generate(datagen.DefaultConfig(300)))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, src := range []string{hospital.XPB, hospital.RXC, "//diagnosis"} {
		m := mfa.MustCompile(xpath.MustParse(src))
		want := refIDs(src, big.tree)
		for _, workers := range []int{0, 2} {
			fresh := colEval(t, hype.New(m), big.cd, hype.Options{Workers: workers})
			e := hype.New(m)
			colEval(t, e, big.cd, hype.Options{}) // size the buffers
			type abortedRun struct {
				ctx  context.Context
				opts hype.Options
			}
			aborts := []abortedRun{
				{context.Background(), hype.Options{Workers: workers, Limits: hype.Limits{MaxVisited: 600}}},
				{cancelled, hype.Options{Workers: workers}},
			}
			if workers == 0 {
				// Shards shorter than a poll window never flush their
				// candidates into the budget, so only a sequential run
				// trips this one reliably.
				aborts = append(aborts, abortedRun{context.Background(), hype.Options{Limits: hype.Limits{MaxResultNodes: 1}}})
			}
			for _, abort := range aborts {
				_, err := e.Eval(abort.ctx, big.cd, abort.opts)
				var le *hype.LimitError
				if !errors.As(err, &le) && !errors.Is(err, context.Canceled) {
					t.Fatalf("%q workers=%d: aborted run returned %v", src, workers, err)
				}
				got := colEval(t, e, big.cd, hype.Options{Workers: workers})
				if !slices.Equal(got.IDs, want) || got.Stats != fresh.Stats {
					t.Errorf("%q workers=%d after %v: %d answers %+v, want %d %+v", src, workers, err, len(got.IDs), got.Stats, len(want), fresh.Stats)
				}
			}
		}
	}
}

// TestOneCloneAcrossLabelTables: a clone's caches are keyed by program
// label ids and interned pointers, never by a document's own label ids, so
// one engine alternating between two documents whose label tables list the
// same labels in different id orders — the sample document, and a datagen
// document read back from a snapshot — answers each exactly as a fresh
// engine and refeval do, with the default cache and at cache cap 1.
func TestOneCloneAcrossLabelTables(t *testing.T) {
	sample := newReuseDoc("sample", hospital.SampleDocument())
	gen := datagen.Generate(datagen.DefaultConfig(150))
	var buf bytes.Buffer
	if err := colstore.FromTree(gen).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	cd, err := colstore.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	snap := reuseDoc{"datagen-150 snapshot", gen, cd, hype.BuildIndex(cd)}
	a, b := sample.cd.Labels(), snap.cd.Labels()
	sa, sb := slices.Clone(a), slices.Clone(b)
	slices.Sort(sa)
	slices.Sort(sb)
	if slices.Equal(a, b) || !slices.Equal(sa, sb) {
		t.Fatalf("the label tables must list the same labels in different orders:\n%v\n%v", a, b)
	}
	for _, cacheCap := range []int{0, 1} {
		for _, src := range sourceQueries {
			m := mfa.MustCompile(xpath.MustParse(src))
			want := map[string][]int{sample.name: refIDs(src, sample.tree), snap.name: refIDs(src, snap.tree)}
			for _, indexed := range []bool{false, true} {
				e := hype.New(m)
				e.SetCompiledCacheCap(cacheCap)
				for _, d := range []reuseDoc{sample, snap, sample, snap} {
					var opts hype.Options
					if indexed {
						opts.Index = d.ix
					}
					got := colEval(t, e, d.cd, opts)
					fresh := colEval(t, hype.New(m), d.cd, opts)
					if !slices.Equal(got.IDs, want[d.name]) || !slices.Equal(got.IDs, fresh.IDs) || got.Stats != fresh.Stats {
						t.Errorf("cap %d, %s, index=%v, %q: %d answers %+v; fresh engine %d %+v; refeval %d",
							cacheCap, d.name, indexed, src, len(got.IDs), got.Stats, len(fresh.IDs), fresh.Stats, len(want[d.name]))
					}
				}
			}
		}
	}
}

// TestShardWorkerReuse: a planner engine keeps its shard workers warm
// between parallel runs — their hybrid caches, index metadata and run
// buffers. One planner alternates between two documents whose label
// tables list the same labels in different id orders, with and without
// the index, at the default cache and at cache cap 1, and again after a
// run whose shard worker panicked. Every run answers as a fresh
// sequential engine and refeval do, with the same Stats.
func TestShardWorkerReuse(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	sample := newReuseDoc("sample", hospital.SampleDocument())
	gen := datagen.Generate(datagen.DefaultConfig(150))
	var buf bytes.Buffer
	if err := colstore.FromTree(gen).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	cd, err := colstore.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	snap := reuseDoc{"datagen-150 snapshot", gen, cd, hype.BuildIndex(cd)}
	if slices.Equal(sample.cd.Labels(), snap.cd.Labels()) {
		t.Fatal("the two documents must number their labels differently")
	}
	for _, cacheCap := range []int{0, 1} {
		for _, src := range sourceQueries {
			m := mfa.MustCompile(xpath.MustParse(src))
			want := map[string][]int{sample.name: refIDs(src, sample.tree), snap.name: refIDs(src, snap.tree)}
			for _, indexed := range []bool{false, true} {
				e := hype.New(m)
				e.SetCompiledCacheCap(cacheCap)
				check := func(d reuseDoc, when string) {
					t.Helper()
					opts := hype.Options{}
					if indexed {
						opts.Index = d.ix
					}
					fresh := colEval(t, hype.New(m), d.cd, opts)
					opts.Workers = 2
					got := colEval(t, e, d.cd, opts)
					if !slices.Equal(got.IDs, want[d.name]) || !slices.Equal(got.IDs, fresh.IDs) || got.Stats != fresh.Stats {
						t.Errorf("cap %d, %s, index=%v, %q, %s: %d answers %+v on %d shards; fresh sequential engine %d %+v; refeval %d",
							cacheCap, d.name, indexed, src, when, len(got.IDs), got.Stats, got.Shards, len(fresh.IDs), fresh.Stats, len(want[d.name]))
					}
				}
				for _, d := range []reuseDoc{sample, snap, sample, snap} {
					check(d, "warm")
				}
				if err := failpoint.Enable(failpoint.SiteHypeShardWorker, "panic"); err != nil {
					t.Fatal(err)
				}
				var opts hype.Options
				if indexed {
					opts.Index = sample.ix
				}
				opts.Workers = 2
				res, err := e.Eval(context.Background(), sample.cd, opts)
				failpoint.DisableAll()
				var pe *guard.PanicError
				if (res.Shards > 0) != errors.As(err, &pe) {
					t.Fatalf("%q: the faulted run on %d shards returned %v", src, res.Shards, err)
				}
				for _, d := range []reuseDoc{snap, sample} {
					check(d, "after a worker panic")
				}
			}
		}
	}
}
