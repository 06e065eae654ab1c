// Genealogy patterns with regular XPath — Example 2.1 of the paper: find
// patients whose heart disease skips exactly every other generation. The
// query needs general Kleene closure (q1/(q1)*), so it lies in Xreg but
// NOT in classic XPath; SMOQE evaluates it in a single pass over the data.
// The demo runs it over a generated corpus and cross-checks three engines.
//
//	go run ./examples/genealogy
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"smoqe"
	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
)

func main() {
	// A deterministic synthetic corpus: 5,000 patients with recursive
	// family histories (the ToXGene stand-in of §7).
	cfg := datagen.DefaultConfig(5000)
	cfg.HeartFrac = 0.35 // dense enough for skip-a-generation patterns
	doc := datagen.Generate(cfg)
	st := doc.ComputeStats()
	fmt.Printf("corpus: %d elements, %d text nodes, depth %d, %.1f MB\n\n",
		st.Elements, st.Texts, st.MaxDepth, float64(doc.XMLSize())/(1<<20))

	q, err := smoqe.ParseQuery(hospital.QExample21)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query (Example 2.1):\n  %s\n", q)
	fmt.Printf("in XPath fragment X: %v (general Kleene star — regular XPath only)\n\n", smoqe.InFragmentX(q))

	m, err := smoqe.Compile(q)
	if err != nil {
		log.Fatal(err)
	}

	// The engines run on the document's columnar form and its subtree
	// index, both built once, outside the timed runs.
	cd := smoqe.BuildColumnar(doc)
	idx := smoqe.BuildIndex(cd)

	// HyPE.
	plan := smoqe.PrepareMFA(m)
	start := time.Now()
	hres, err := plan.Eval(context.Background(), nil, smoqe.EvalOptions{Columnar: cd})
	if err != nil {
		log.Fatal(err)
	}
	tHype := time.Since(start)
	res, es := hres.IDs, hres.Stats
	fmt.Printf("HyPE:      %4d matches in %8.3fms (visited %d/%d elements, %d subtrees pruned)\n",
		len(res), ms(tHype), es.VisitedElements, st.Elements, es.SkippedSubtrees)

	// OptHyPE with the subtree index.
	start = time.Now()
	ores, err := plan.Eval(context.Background(), nil, smoqe.EvalOptions{Columnar: cd, Index: idx})
	if err != nil {
		log.Fatal(err)
	}
	res2 := ores.IDs
	tOpt := time.Since(start)
	fmt.Printf("OptHyPE-C: %4d matches in %8.3fms (index: %d labels, %d distinct sets)\n",
		len(res2), ms(tOpt), cd.NumLabels(), idx.DistinctSets())

	// The XQuery-translation stand-in (how you'd run this without a
	// regular XPath engine).
	start = time.Now()
	res3 := smoqe.EvalXQueryTranslation(q, doc.Root)
	tXq := time.Since(start)
	fmt.Printf("XQ-transl: %4d matches in %8.3fms\n\n", len(res3), ms(tXq))

	if len(res) != len(res2) || len(res) != len(res3) {
		log.Fatalf("engines disagree: %d vs %d vs %d", len(res), len(res2), len(res3))
	}
	fmt.Printf("all engines agree on %d matching patients; first few:\n", len(res))
	for i, id := range res {
		if i == 5 {
			break
		}
		fmt.Printf("    %s\n", cd.Text(int32(id)))
	}
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
