// Access control by virtual views — the paper's motivating scenario
// (Examples 1.1–3.1): a hospital exposes only heart-disease patients and
// their ancestor hierarchy to a research institute; names, addresses,
// doctors, tests and siblings stay hidden. The institute's queries are
// rewritten into automata over the source and answered WITHOUT
// materializing the view, and the demo shows why the naive '//' rewriting
// would breach patient privacy while the automaton rewriting does not.
//
//	go run ./examples/accesscontrol
package main

import (
	"context"
	"fmt"
	"log"

	"smoqe"
	"smoqe/internal/hospital"
)

func main() {
	// The schemas and the view σ0 of Fig. 1 of the paper.
	docDTD, err := smoqe.ParseDTD(hospital.DocDTDSource)
	check(err)
	viewDTD, err := smoqe.ParseDTD(hospital.ViewDTDSource)
	check(err)
	sigma0, err := smoqe.ParseView(hospital.Sigma0Source, docDTD, viewDTD)
	check(err)
	fmt.Printf("view %q: recursive=%v, |σ|=%d\n\n", sigma0.Name, sigma0.IsRecursive(), sigma0.Size())

	// The hospital's source document. Alice has heart disease and a
	// grandmother (Carol) who had it too; Alice's *sibling* Dan also had
	// it, but siblings are not part of the view.
	doc, err := smoqe.ParseDocumentString(hospital.SampleXML)
	check(err)
	check(docDTD.CheckDocument(doc))

	// The institute asks: which patients have an ancestor with heart
	// disease? (Example 1.1 — the query is over the VIEW schema.)
	q, err := smoqe.ParseQuery(hospital.QExample11)
	check(err)
	fmt.Printf("query on the view: %s\n\n", q)

	// Route 1 (what SMOQE does): rewrite into an automaton over the
	// source and evaluate with HyPE. No view is ever materialized.
	m, err := smoqe.Rewrite(sigma0, q)
	check(err)
	st := m.ComputeStats()
	fmt.Printf("rewritten MFA: %d NFA states, %d AFAs, |M|=%d (no exponential blow-up)\n",
		st.NFAStates, st.AFACount, st.Size)
	plan := smoqe.PrepareMFA(m)
	res, err := plan.Eval(context.Background(), doc.Root, smoqe.EvalOptions{})
	check(err)
	answers := res.Nodes
	fmt.Printf("rewriting route: %d answer(s)\n", len(answers))
	for _, n := range answers {
		fmt.Printf("    %s (%s)\n", n.Path(), pname(n))
	}

	// Route 2 (for comparison only): materialize σ0(T) and query it.
	mat, err := smoqe.Materialize(sigma0, doc)
	check(err)
	viewAnswers := smoqe.EvalReference(q, mat.Doc.Root)
	fmt.Printf("materialization route: %d answer(s) — the same nodes: %v\n\n",
		len(viewAnswers), same(mat.SourceOf(viewAnswers), answers))

	// The security point (Theorem 3.1): the "obvious" source-level
	// rewriting keeps '//' and therefore reaches *siblings*, selecting
	// patients it must not. Eve below has a sick sibling but healthy
	// ancestors: the naive query leaks her, the rewritten MFA does not.
	eve := `<hospital><department><name>d</name>
	 <patient><pname>Eve</pname><address><street>s</street><city>c</city><zip>z</zip></address>
	  <sibling><patient><pname>Sib</pname><address><street>s</street><city>c</city><zip>z</zip></address>
	   <visit><date>1</date><treatment><medication><type>t</type><diagnosis>heart disease</diagnosis></medication></treatment>
	   <doctor><dname>dr</dname><specialty>sp</specialty></doctor></visit></patient></sibling>
	  <visit><date>2</date><treatment><medication><type>t</type><diagnosis>heart disease</diagnosis></medication></treatment>
	  <doctor><dname>dr</dname><specialty>sp</specialty></doctor></visit>
	 </patient></department></hospital>`
	edoc, err := smoqe.ParseDocumentString(eve)
	check(err)
	naive, err := smoqe.ParseQuery(
		"department/patient[visit/treatment/medication/diagnosis/text()='heart disease']" +
			"[*//diagnosis/text()='heart disease']")
	check(err)
	leaked := smoqe.EvalReference(naive, edoc.Root)
	res, err = plan.Eval(context.Background(), edoc.Root, smoqe.EvalOptions{})
	check(err)
	correct := res.Nodes
	fmt.Printf("naive '//' rewriting on Eve's record: %d answer(s)  <- LEAK (her sibling is private)\n", len(leaked))
	fmt.Printf("MFA rewriting on Eve's record:        %d answer(s)  <- correct\n", len(correct))
}

func pname(patient *smoqe.Node) string {
	for _, c := range patient.ElementChildren() {
		if c.Label == "pname" {
			return c.TextContent()
		}
	}
	return "?"
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
