package hype_test

import (
	"context"
	"runtime"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/xpath"
)

// TestSteadyStateRunAllocations is the allocation guard of a warm engine:
// once a clone has run a query, its next sequential runs on the same
// document reuse the run buffers, so each allocates a small, fixed number
// of objects and no more bytes than its answer slices plus a few KiB —
// for a guarded query and a guard-free one, with and without the index.
func TestSteadyStateRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	// maxObjects covers the run's fixed cost: its state, label binding,
	// cursor, predicate outcomes and the answer slices.
	const maxObjects = 10
	const slackBytes = 4 << 10
	cd := colstore.FromTree(datagen.Generate(datagen.DefaultConfig(300)))
	ix := hype.BuildIndex(cd)
	ctx := context.Background()
	for _, src := range []string{hospital.XPB, "//diagnosis"} {
		for _, index := range []*hype.Index{nil, ix} {
			e := hype.New(mfa.MustCompile(xpath.MustParse(src)))
			opts := hype.Options{Index: index}
			var res hype.Result
			run := func() {
				var err error
				if res, err = e.Eval(ctx, cd, opts); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the hybrid cache and the run buffers
			if len(res.IDs) == 0 {
				t.Fatalf("%q: no answers; the guard measures nothing", src)
			}
			objs := testing.AllocsPerRun(20, run)

			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				run()
			}
			runtime.ReadMemStats(&after)
			perRun := (after.TotalAlloc - before.TotalAlloc) / runs
			answerBytes := uint64(8*cap(res.IDs) + 24*cap(res.TaggedIDs))

			t.Logf("%q index=%v: %d answers, %.0f objects and %d bytes per run", src, index != nil, len(res.IDs), objs, perRun)
			if objs > maxObjects {
				t.Errorf("%q index=%v: %.0f objects per run, want at most %d", src, index != nil, objs, maxObjects)
			}
			if perRun > answerBytes+slackBytes {
				t.Errorf("%q index=%v: %d bytes per run, want at most %d (answers) + %d", src, index != nil, perRun, answerBytes, slackBytes)
			}
		}
	}
}
