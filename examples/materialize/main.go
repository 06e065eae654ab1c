// View materialization and conformance: build σ0(T) for a generated
// hospital document, validate it against the view DTD, inspect provenance,
// and compare the cost of materialize-then-query against rewrite-and-eval.
//
//	go run ./examples/materialize
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
	docDTD, err := smoqe.ParseDTD(hospital.DocDTDSource)
	check(err)
	viewDTD, err := smoqe.ParseDTD(hospital.ViewDTDSource)
	check(err)
	sigma0, err := smoqe.ParseView(hospital.Sigma0Source, docDTD, viewDTD)
	check(err)

	doc := datagen.Generate(datagen.DefaultConfig(2000))
	srcStats := doc.ComputeStats()
	fmt.Printf("source: %d elements (%.1f MB)\n", srcStats.Elements, float64(doc.XMLSize())/(1<<20))

	// Materialize σ0(T) and validate it against the view DTD.
	start := time.Now()
	mat, err := smoqe.Materialize(sigma0, doc)
	check(err)
	tMat := time.Since(start)
	check(viewDTD.CheckDocument(mat.Doc))
	vStats := mat.Doc.ComputeStats()
	fmt.Printf("view:   %d elements (%.1f%% of the source is exposed), conforms to D_V\n",
		vStats.Elements, 100*float64(vStats.Elements)/float64(srcStats.Elements))
	fmt.Printf("        top-level view patients: %d\n", len(mat.Doc.Root.ElementChildren()))

	// Provenance: every view node knows its source node.
	if p := mat.Doc.Root.ElementChildren(); len(p) > 0 {
		fmt.Printf("        first view patient %s <- source %s\n", p[0].Path(), mat.Src[p[0]].Path())
	}

	// Same query, two routes.
	q, err := smoqe.ParseQuery(hospital.QExample41)
	check(err)

	start = time.Now()
	viewNodes := smoqe.EvalReference(q, mat.Doc.Root)
	viaView := mat.SourceOf(viewNodes)
	tQueryView := time.Since(start)

	m, err := smoqe.Rewrite(sigma0, q)
	check(err)
	start = time.Now()
	res, err := smoqe.PrepareMFA(m).Eval(context.Background(), doc.Root, smoqe.EvalOptions{})
	check(err)
	viaRewrite := res.Nodes
	tRewriteEval := time.Since(start)

	fmt.Printf("\nquery: %s\n", q)
	fmt.Printf("materialize (%.1fms) + query view (%.1fms): %d answers\n",
		ms(tMat), ms(tQueryView), len(viaView))
	fmt.Printf("rewrite once + HyPE on source (%.1fms):      %d answers\n",
		ms(tRewriteEval), len(viaRewrite))
	if len(viaView) != len(viaRewrite) {
		log.Fatal("routes disagree!")
	}
	for i := range viaView {
		if viaView[i] != viaRewrite[i] {
			log.Fatal("routes disagree on a node!")
		}
	}
	fmt.Println("both routes return exactly the same source nodes — Q(σ(T)) = M(T).")
	fmt.Println("\nwith many user groups (one view each), the rewriting route needs no")
	fmt.Println("per-group storage and no view maintenance on updates — the paper's point.")
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
