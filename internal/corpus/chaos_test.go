package corpus

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"smoqe/internal/colstore"
	"smoqe/internal/failpoint"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/xpath"
)

// evalCorpus runs the query over every indexed document and renders the
// answers as one canonical string (documents in name order, preorder node
// ids per document) — the byte-comparable artifact of the crash-recovery
// property.
func evalCorpus(t *testing.T, c *Collection, query string) string {
	t.Helper()
	eng := hype.New(mfa.MustCompile(xpath.MustParse(query)))
	var sb strings.Builder
	for _, d := range c.Docs(StatusIndexed) {
		if d.Col == nil {
			t.Fatalf("%s: indexed without a columnar document", d.Name)
		}
		fmt.Fprintf(&sb, "%s:%v\n", d.Name, columnarIDs(eng, d.Col))
	}
	return sb.String()
}

// TestChaosCrashRecovery is the headline robustness property: with the
// three corpus failpoints armed at 10% — including panics that kill the
// indexer between the manifest temp-file write and its atomic rename —
// every simulated process death leaves the on-disk state recoverable to a
// consistent generation that never regresses, and once the faults stop, a
// restarted manager answers queries byte-identically to a never-crashed
// golden run. Run under -race in CI.
func TestChaosCrashRecovery(t *testing.T) {
	root := t.TempDir()
	col := filepath.Join(root, "col")
	if err := os.Mkdir(col, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		writeXML(t, col, fmt.Sprintf("doc%d.xml", i),
			fmt.Sprintf(`<a><b>text%d</b><c><b>more</b></c></a>`, i))
	}
	writeSnapshot(t, col, "snap.smoqe-snapshot", `<a><b>cold</b></a>`)
	clk := newFakeClock()
	opt := testOptions(clk)
	ctx := context.Background()

	// Golden run: no faults, full index, canonical answers.
	golden, err := Open(ctx, root, opt)
	if err != nil {
		t.Fatal(err)
	}
	gc, _ := golden.Collection("col")
	const query = "b"
	goldenAnswers := evalCorpus(t, gc, query)
	if !strings.Contains(goldenAnswers, "doc0.xml") || !strings.Contains(goldenAnswers, "snap.smoqe-snapshot") {
		t.Fatalf("golden run incomplete: %q", goldenAnswers)
	}

	// Chaos rounds: every Open/scan runs with injected errors on scans and
	// per-document indexing, and injected panics mid-manifest-write. A
	// panic is the simulated kill -9: the manager is discarded without
	// cleanup and the next round recovers from disk alone.
	arm := func(site, spec string) {
		t.Helper()
		if err := failpoint.Enable(site, spec); err != nil {
			t.Fatal(err)
		}
	}
	arm(failpoint.SiteCorpusManifestWrite, "panic@0.1")
	arm(failpoint.SiteCorpusIndexDoc, "error@0.1")
	arm(failpoint.SiteCorpusScan, "error@0.1")
	defer failpoint.DisableAll()

	var lastGen uint64
	crashes := 0
	for round := 0; round < 25; round++ {
		// Touch a document most rounds so manifest generations keep moving
		// while faults fire.
		if round%3 != 0 {
			time.Sleep(2 * time.Millisecond) // new mtime even on coarse clocks
			writeXML(t, col, "doc0.xml",
				fmt.Sprintf(`<a><b>text0</b><c><b>round%d</b></c></a>`, round))
		}
		func() {
			defer func() {
				if recover() != nil {
					crashes++ // the simulated process death
				}
			}()
			m, err := Open(ctx, root, opt)
			if err != nil {
				return // daemon failed to start this round; state is on disk
			}
			// A few extra scans per lifetime widen the crash window.
			for i := 0; i < 3; i++ {
				clk.Advance(time.Second)
				if err := m.scanAll(ctx); err != nil {
					return
				}
			}
		}()

		// Whatever just died, the on-disk state must recover to a
		// consistent generation, and consistent generations never regress.
		gen, docs, _ := recoverManifest(col)
		if gen < lastGen {
			t.Fatalf("round %d: recovered generation regressed %d -> %d", round, lastGen, gen)
		}
		if gen > 0 && len(docs) == 0 {
			t.Fatalf("round %d: generation %d recovered with no documents", round, gen)
		}
		lastGen = gen
	}
	if crashes == 0 {
		t.Log("no injected panic fired in 25 rounds; recovery still exercised via injected errors")
	}

	// Faults stop; one restart plus the manual reindex escape hatch must
	// reproduce the golden answers byte for byte. doc0.xml was rewritten
	// mid-chaos, so restore it first.
	failpoint.DisableAll()
	time.Sleep(2 * time.Millisecond)
	writeXML(t, col, "doc0.xml", `<a><b>text0</b><c><b>more</b></c></a>`)
	m, err := Open(ctx, root, opt)
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Reindex(ctx, "col")
	if err != nil {
		t.Fatal(err)
	}
	if info.Quarantined != 0 || info.Pending != 0 || info.Indexed != 7 {
		t.Fatalf("after recovery reindex: %+v, want 7 indexed", info)
	}
	c, _ := m.Collection("col")
	if g := c.Generation(); g < lastGen {
		t.Errorf("final generation %d regressed below last recovered %d", g, lastGen)
	}
	if got := evalCorpus(t, c, query); got != goldenAnswers {
		t.Errorf("post-crash answers diverge from golden run:\ngolden:\n%s\ngot:\n%s", goldenAnswers, got)
	}

	// No half-published state may survive: the recovery contract is torn
	// temp files are ignored and eventually irrelevant.
	names, err := os.ReadDir(col)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(names, func(i, j int) bool { return names[i].Name() < names[j].Name() })
	for _, de := range names {
		if strings.HasSuffix(de.Name(), ".tmp") {
			t.Logf("stray temp file %s survived the chaos (recovery ignores it)", de.Name())
		}
	}
}

// columnarIDs is the answer set (preorder ids) of an unlimited columnar
// evaluation over cd. Such a run has no budget to exceed and a context
// that is never done, so it cannot fail.
func columnarIDs(e *hype.Engine, cd *colstore.Document) []int {
	res, err := e.Eval(context.Background(), cd, hype.Options{})
	if err != nil {
		panic(err)
	}
	return res.IDs
}
