package hype_test

import (
	"reflect"
	"testing"

	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/refeval"
	"smoqe/internal/xpath"
)

// TestCompiledCacheEviction forces the hybrid-state cache through flushes
// with a tiny cap: flushes must happen on every run, and none of them may
// change answers (the reference's) or Stats (the default cache's).
func TestCompiledCacheEviction(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(300))
	for _, src := range []string{hospital.RXC, "//patient", "department/patient[visit and parent]"} {
		q := xpath.MustParse(src)
		m := mfa.MustCompile(q)
		want := eval(t, hype.New(m), doc.Root, hype.Options{})
		if ref := ids(refeval.Eval(q, doc.Root)); !reflect.DeepEqual(want.IDs, ref) {
			t.Fatalf("%q: answers %v, reference %v", src, want.IDs, ref)
		}

		tiny := hype.New(m)
		tiny.SetCompiledCacheCap(1)
		for run := range 2 {
			got := eval(t, tiny, doc.Root, hype.Options{})
			if !reflect.DeepEqual(got.IDs, want.IDs) || got.Stats != want.Stats {
				t.Fatalf("%q, run %d: answers/Stats diverge under cache cap 1", src, run)
			}
			cs := got.Compiled
			if !cs.Enabled || cs.DFACacheCap != 1 {
				t.Fatalf("%q: compiled stats %+v, want enabled with cap 1", src, cs)
			}
			if cs.DFAFlushes == 0 {
				t.Errorf("%q, run %d: expected cache flushes under cap 1, got none (states=%d)", src, run, cs.DFAStates)
			}
		}
	}
}

// TestCompiledCacheWarmsAcrossRuns: the hybrid automaton is per clone, so
// a second run on the same clone reuses cached states (no misses) and a
// fresh clone starts cold.
func TestCompiledCacheWarmsAcrossRuns(t *testing.T) {
	doc := datagen.Generate(datagen.DefaultConfig(200))
	m := mfa.MustCompile(xpath.MustParse(hospital.XPA))
	e := hype.New(m)
	first := eval(t, e, doc.Root, hype.Options{}).Compiled
	if first.DFAStates == 0 {
		t.Fatalf("first run built no hybrid states: %+v", first)
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
