package hype_test

import (
	"reflect"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

// TestCompiledMatchesInterpreted is the compiled-layer identity property on
// the fixed query set: for every engine variant and for the columnar pass,
// the compiled evaluation must return the same answers AND the same Stats as
// the interpreted pointer pass — the compiled passes replay decisions, they
// do not make new ones.
func TestCompiledMatchesInterpreted(t *testing.T) {
	for _, d := range []struct {
		name string
		doc  *xmltree.Document
	}{
		{"sample", hospital.SampleDocument()},
		{"generated", datagen.Generate(datagen.DefaultConfig(150))},
	} {
		cd := colstore.FromTree(d.doc)
		for _, src := range sourceQueries {
			q := xpath.MustParse(src)
			m := mfa.MustCompile(q)
			compiled := engines(t, m, d.doc)
			interpreted := engines(t, m, d.doc)
			for name, eng := range compiled {
				interp := interpreted[name]
				interp.SetCompiled(false)
				want := eval(t, interp, d.doc.Root, hype.Options{})
				got := eval(t, eng, d.doc.Root, hype.Options{})
				if !same(got.Nodes, want.Nodes) {
					t.Errorf("%s/%s %q: compiled answers differ: %v vs %v",
						d.name, name, src, ids(got.Nodes), ids(want.Nodes))
				}
				if got.Stats != want.Stats {
					t.Errorf("%s/%s %q: compiled Stats = %+v, interpreted %+v",
						d.name, name, src, got.Stats, want.Stats)
				}
				if !got.Compiled.Enabled {
					t.Errorf("%s/%s %q: compiled run reported Enabled=false", d.name, name, src)
				}
				if want.Compiled.Enabled {
					t.Errorf("%s/%s %q: interpreted run reported Enabled=true", d.name, name, src)
				}
			}

			interp := hype.New(m)
			interp.SetCompiled(false)
			want := eval(t, interp, d.doc.Root, hype.Options{})
			col := colEval(t, hype.New(m), cd, hype.Options{})
			if wantIDs := ids(want.Nodes); !reflect.DeepEqual(col.IDs, wantIDs) && len(col.IDs)+len(wantIDs) > 0 {
				t.Errorf("%s/columnar %q: compiled ids %v, interpreted pointer %v", d.name, src, col.IDs, wantIDs)
			}
			if col.Stats != want.Stats {
				t.Errorf("%s/columnar %q: compiled Stats = %+v, interpreted pointer %+v", d.name, src, col.Stats, want.Stats)
			}
			if !col.Compiled.Enabled {
				t.Errorf("%s/columnar %q: columnar run reported Enabled=false", d.name, src)
			}
		}
	}
}

// TestCompiledTraceIdentical: a traced run stays on the compiled path and
// must replay the interpreted decision log event for event, with the
// compiled-layer statistics attached to the trace.
func TestCompiledTraceIdentical(t *testing.T) {
	doc := hospital.SampleDocument()
	for _, src := range sourceQueries {
		m := mfa.MustCompile(xpath.MustParse(src))
		comp := hype.New(m)
		interp := hype.New(m)
		interp.SetCompiled(false)

		got := eval(t, comp, doc.Root, hype.Options{Trace: 4096})
		want := eval(t, interp, doc.Root, hype.Options{Trace: 4096})
		gotTr, wantTr := got.Trace, want.Trace
		if !same(got.Nodes, want.Nodes) || got.Stats != want.Stats {
			t.Fatalf("%q: traced compiled run diverges", src)
		}
		if !reflect.DeepEqual(gotTr.Events, wantTr.Events) || gotTr.Dropped != wantTr.Dropped {
			t.Errorf("%q: compiled trace events differ from interpreted", src)
		}
		if gotTr.Compiled == nil || !gotTr.Compiled.Enabled {
			t.Errorf("%q: compiled trace missing CompiledStats", src)
		}
		if wantTr.Compiled != nil {
			t.Errorf("%q: interpreted trace carries CompiledStats", src)
		}
	}
}

// TestCompiledCacheEvictionAndFallback forces the subset-state cache through
// its whole lifecycle with a tiny cap: flushes must happen, the cache must
// eventually disable itself (NFA-simulation fallback), and none of it may
// change answers or Stats.
func TestCompiledCacheEvictionAndFallback(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(300))
	sawFallback := false
	for _, src := range []string{hospital.RXC, "//patient", "department/patient[visit and parent]"} {
		m := mfa.MustCompile(xpath.MustParse(src))
		interp := hype.New(m)
		interp.SetCompiled(false)
		want := eval(t, interp, doc.Root, hype.Options{})

		tiny := hype.New(m)
		tiny.SetCompiledCacheCap(1)
		got := eval(t, tiny, doc.Root, hype.Options{})
		if !same(got.Nodes, want.Nodes) || got.Stats != want.Stats {
			t.Fatalf("%q: answers/Stats diverge under cache cap 1", src)
		}
		cs := got.Compiled
		if !cs.Enabled {
			t.Fatalf("%q: compiled layer not used", src)
		}
		if cs.DFACacheCap != 1 {
			t.Errorf("%q: DFACacheCap = %d, want 1", src, cs.DFACacheCap)
		}
		if cs.DFAFlushes == 0 {
			t.Errorf("%q: expected cache flushes under cap 1, got none (states=%d)", src, cs.DFAStates)
		}
		sawFallback = sawFallback || cs.DFAFallback

		// A second run on the same (now fallback) clone must still agree.
		got = eval(t, tiny, doc.Root, hype.Options{})
		if !same(got.Nodes, want.Nodes) || got.Stats != want.Stats {
			t.Fatalf("%q: post-fallback rerun diverges", src)
		}
	}
	if !sawFallback {
		t.Error("no query reached the NFA-simulation fallback under cache cap 1")
	}
}

// TestCompiledCacheWarmsAcrossRuns: the subset automaton is per clone, so a
// second run on the same clone reuses cached states (near-zero misses) and
// a fresh clone starts cold.
func TestCompiledCacheWarmsAcrossRuns(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(200))
	m := mfa.MustCompile(xpath.MustParse(hospital.XPA))
	e := hype.New(m)
	first := eval(t, e, doc.Root, hype.Options{}).Compiled
	if first.DFAStates == 0 {
		t.Fatalf("first run built no subset states: %+v", first)
	}
	second := eval(t, e, doc.Root, hype.Options{}).Compiled
	if second.DFAStates != 0 || second.DFAMisses != 0 {
		t.Errorf("second run should be fully cached, got states=%d misses=%d",
			second.DFAStates, second.DFAMisses)
	}
	cold := eval(t, e.Clone(), doc.Root, hype.Options{}).Compiled
	if cold.DFAStates != first.DFAStates {
		t.Errorf("fresh clone built %d states, original first run %d", cold.DFAStates, first.DFAStates)
	}
}

// TestCompiledPlanSizing: the static plan numbers must reconcile with the
// automaton (Theorem 5.1 accounting): one word per 64 NFA states, and an
// alphabet no larger than the automaton's edge count.
func TestCompiledPlanSizing(t *testing.T) {
	m := mfa.MustCompile(xpath.MustParse(hospital.RXC))
	cp := hype.CompiledPlan(m)
	wantWords := (m.NumStates() + 63) / 64
	if wantWords == 0 {
		wantWords = 1
	}
	if cp.NFAWords != wantWords {
		t.Errorf("NFAWords = %d, want %d for %d NFA states", cp.NFAWords, wantWords, m.NumStates())
	}
	if cp.Alphabet <= 0 {
		t.Errorf("Alphabet = %d, want > 0", cp.Alphabet)
	}
	if cp.DFACacheCap <= 0 {
		t.Errorf("DFACacheCap = %d, want > 0", cp.DFACacheCap)
	}
	run := eval(t, hype.New(m), hospital.SampleDocument().Root, hype.Options{}).Compiled
	if run.Alphabet != cp.Alphabet || run.NFAWords != cp.NFAWords || run.AFAWords != cp.AFAWords {
		t.Errorf("run-time sizing %+v disagrees with CompiledPlan %+v", run, cp)
	}
}
