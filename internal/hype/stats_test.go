package hype_test

import (
	"reflect"
	"testing"

	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/xpath"
)

func TestPruneRate(t *testing.T) {
	tests := []struct {
		name  string
		stats hype.Stats
		total int
		want  float64
	}{
		{"zero total", hype.Stats{VisitedElements: 5}, 0, 0},
		{"negative total", hype.Stats{VisitedElements: 5}, -3, 0},
		{"all visited", hype.Stats{VisitedElements: 10}, 10, 0},
		{"none visited", hype.Stats{VisitedElements: 0}, 10, 1},
		{"half pruned", hype.Stats{VisitedElements: 5}, 10, 0.5},
		// A run rooted below the document root can visit fewer nodes than
		// the caller's total suggests; the rate still lands in [0, 1].
		{"quarter visited", hype.Stats{VisitedElements: 1}, 4, 0.75},
	}
	for _, tc := range tests {
		if got := tc.stats.PruneRate(tc.total); got != tc.want {
			t.Errorf("%s: PruneRate(%d) = %v, want %v", tc.name, tc.total, got, tc.want)
		}
	}
}

// TestPruneRateIndexVsNoIndex checks the §7 relationship on a real run:
// with the subtree index the engine visits no more elements than without
// it, so its prune rate is at least as high, and SkippedElements is only
// filled when an index is present.
func TestPruneRateIndexVsNoIndex(t *testing.T) {
	doc := hospital.SampleDocument()
	total := doc.ComputeStats().Elements
	m := mfa.MustCompile(xpath.MustParse(hospital.XPA))

	stPlain := eval(t, hype.New(m), doc.Root, hype.Options{}).Stats
	stOpt := evalIndexed(t, hype.New(m), doc.Root).Stats

	if stPlain.SkippedElements != 0 {
		t.Errorf("no-index run filled SkippedElements = %d, want 0", stPlain.SkippedElements)
	}
	rPlain, rOpt := stPlain.PruneRate(total), stOpt.PruneRate(total)
	if rOpt < rPlain {
		t.Errorf("index prune rate %v < no-index %v", rOpt, rPlain)
	}
	if rPlain < 0 || rPlain > 1 || rOpt < 0 || rOpt > 1 {
		t.Errorf("prune rates out of [0,1]: %v, %v", rPlain, rOpt)
	}
}

// TestEvalWithStatsPerRun checks that Eval returns run-local statistics:
// two runs on one engine report identical values, nothing carries over.
func TestEvalWithStatsPerRun(t *testing.T) {
	doc := hospital.SampleDocument()
	m := mfa.MustCompile(xpath.MustParse(hospital.XPB))
	e := hype.New(m)
	r1 := eval(t, e, doc.Root, hype.Options{})
	r2 := eval(t, e, doc.Root, hype.Options{})
	if !reflect.DeepEqual(r1.Stats, r2.Stats) {
		t.Errorf("second run stats %+v differ from first %+v", r2.Stats, r1.Stats)
	}
	if !reflect.DeepEqual(r1.IDs, r2.IDs) {
		t.Errorf("answers changed across runs: %d vs %d", len(r1.IDs), len(r2.IDs))
	}
	if r1.Stats.VisitedElements <= 0 {
		t.Errorf("VisitedElements = %d, want > 0", r1.Stats.VisitedElements)
	}
}

func TestEvalTraced(t *testing.T) {
	doc := hospital.SampleDocument()
	m := mfa.MustCompile(xpath.MustParse(hospital.XPA))
	e := hype.New(m)
	want := answers(t, e, doc.Root, false)

	res := eval(t, e, doc.Root, hype.Options{Trace: hype.DefaultTraceLimit})
	st, tr := res.Stats, res.Trace
	if len(res.IDs) != len(want) {
		t.Fatalf("traced run returned %d nodes, want %d", len(res.IDs), len(want))
	}
	if tr.Limit != hype.DefaultTraceLimit {
		t.Errorf("limit = %d, want %d", tr.Limit, hype.DefaultTraceLimit)
	}
	visits, prunes := 0, 0
	for _, ev := range tr.Events {
		switch ev.Kind {
		case hype.TraceVisit:
			visits++
		case hype.TracePrune:
			prunes++
		}
		if ev.Path == "" || ev.Label == "" {
			t.Errorf("event %+v missing path or label", ev)
		}
	}
	if tr.Dropped == 0 {
		if visits != st.VisitedElements {
			t.Errorf("trace has %d visits, stats say %d", visits, st.VisitedElements)
		}
		if prunes != st.SkippedSubtrees {
			t.Errorf("trace has %d prunes, stats say %d", prunes, st.SkippedSubtrees)
		}
	}

	// A tiny cap is honored and reports the overflow.
	small := eval(t, e, doc.Root, hype.Options{Trace: 3}).Trace
	if len(small.Events) != 3 {
		t.Errorf("capped trace has %d events, want 3", len(small.Events))
	}
	if small.Dropped == 0 {
		t.Error("capped trace dropped nothing; expected overflow")
	}
}

// TestEvalTracedIndexPrunes checks that OptHyPE index prunes surface in
// the trace with their skipped-element accounting.
func TestEvalTracedIndexPrunes(t *testing.T) {
	doc := hospital.SampleDocument()
	m := mfa.MustCompile(xpath.MustParse("department/patient/pname"))
	res, _ := evalAt(t, hype.New(m), doc.Root, true, hype.Options{Trace: 100000})
	st, tr := res.Stats, res.Trace
	if st.SkippedSubtrees == 0 {
		t.Skip("query prunes nothing on the sample; pick a more selective one")
	}
	found := 0
	for _, ev := range tr.Events {
		if ev.Kind == hype.TracePrune {
			found++
		}
	}
	if found != st.SkippedSubtrees {
		t.Errorf("trace records %d prunes, stats say %d", found, st.SkippedSubtrees)
	}
}
