// Stacked (multi-level) views: a hierarchy of two views — the research
// view σ0 of the paper on top of the hospital data, and a public-statistics
// view defined on top of σ0 — with queries answered directly on the source
// document by composing automaton rewritings (RewriteMFA). Extracting an
// intermediate query instead would hit the exponential blow-up of
// Corollary 3.3; the demo measures both routes.
//
//	go run ./examples/viewstack
package main

import (
	"context"
	"fmt"
	"log"

	"smoqe"
	"smoqe/internal/hospital"
)

const publicDTD = `
dtd public {
  root hospital;
  hospital -> case*;
  case -> diagnosis*;
  diagnosis -> #text;
}`

const publicSpec = `
view public {
  # One case per exposed patient; only family-line diagnoses, no shape.
  hospital/case = patient;
  case/diagnosis = (parent/patient)*/record/diagnosis;
}`

func main() {
	docDTD, err := smoqe.ParseDTD(hospital.DocDTDSource)
	check(err)
	viewDTD, err := smoqe.ParseDTD(hospital.ViewDTDSource)
	check(err)
	sigma1, err := smoqe.ParseView(hospital.Sigma0Source, docDTD, viewDTD)
	check(err)

	pubDTD, err := smoqe.ParseDTD(publicDTD)
	check(err)
	sigma2, err := smoqe.ParseView(publicSpec, viewDTD, pubDTD)
	check(err)

	fmt.Println("view stack: hospital --σ0--> research view --public--> statistics view")
	fmt.Println()

	doc, err := smoqe.ParseDocumentString(hospital.SampleXML)
	check(err)

	// A statistics query over the OUTER view.
	q, err := smoqe.ParseQuery("case[diagnosis/text()='heart disease']")
	check(err)
	fmt.Printf("query on the public view: %s\n\n", q)

	// Compose the rewritings: public query -> automaton over the research
	// view -> automaton over the hospital source.
	m2, err := smoqe.Rewrite(sigma2, q)
	check(err)
	m, err := smoqe.RewriteMFA(sigma1, m2)
	check(err)
	fmt.Printf("automaton over the research view: |M| = %d\n", m2.Size())
	fmt.Printf("automaton over the source:        |M| = %d\n", m.Size())

	res, err := smoqe.PrepareMFA(m).Eval(context.Background(), doc.Root, smoqe.EvalOptions{})
	check(err)
	answers := res.Nodes
	fmt.Printf("answers on the source document: %d patient(s)\n", len(answers))
	for _, n := range answers {
		fmt.Printf("    %s\n", n.Path())
	}

	// Ground truth through double materialization.
	mat1, err := smoqe.Materialize(sigma1, doc)
	check(err)
	mat2, err := smoqe.Materialize(sigma2, mat1.Doc)
	check(err)
	level2 := smoqe.EvalReference(q, mat2.Doc.Root)
	ground := mat1.SourceOf(mat2.SourceOf(level2))
	fmt.Printf("double materialization agrees: %v\n\n", same(ground, answers))

	// Why compose automata instead of queries? Extracting the explicit
	// intermediate query can blow up exponentially (Corollary 3.3).
	if back, err := smoqe.ToXreg(m2, 1<<22); err == nil {
		fmt.Printf("explicit intermediate query would have size %d (automaton: %d)\n", back.Size(), m2.Size())
	} else {
		fmt.Printf("explicit intermediate query exceeds a 4M-node budget (automaton: %d states)\n", m2.Size())
	}

	// And the security property holds through the stack: nothing below
	// the public schema is reachable.
	for _, hidden := range []string{"case/record", "//pname", "patient"} {
		hq, err := smoqe.ParseQuery(hidden)
		check(err)
		hm2, err := smoqe.Rewrite(sigma2, hq)
		check(err)
		hm, err := smoqe.RewriteMFA(sigma1, hm2)
		check(err)
		res, err := smoqe.PrepareMFA(hm).Eval(context.Background(), doc.Root, smoqe.EvalOptions{})
		check(err)
		fmt.Printf("hidden query %-12q through the stack: %d answer(s)\n", hidden, len(res.Nodes))
	}
}

func same(a, b []*smoqe.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
