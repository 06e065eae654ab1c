// Quickstart: parse an XML document, run XPath and regular XPath queries
// with the HyPE engine, and inspect evaluation statistics.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"smoqe"
)

const doc = `<hospital>
  <patient>
    <parent>
      <patient>
        <record><diagnosis>heart disease</diagnosis></record>
      </patient>
    </parent>
    <record><diagnosis>flu</diagnosis></record>
  </patient>
  <patient>
    <record><diagnosis>heart disease</diagnosis></record>
  </patient>
</hospital>`

func main() {
	tree, err := smoqe.ParseDocumentString(doc)
	if err != nil {
		log.Fatal(err)
	}

	// Plain XPath: '//' works and is internally desugared to (⋃Ele)*.
	show(tree, "//diagnosis")
	show(tree, "patient[record/diagnosis/text()='heart disease']")

	// Regular XPath: general Kleene closure walks the recursive
	// parent/patient hierarchy — not expressible in plain XPath.
	show(tree, "(patient/parent)*/patient[record/diagnosis/text()='heart disease']")

	// Compile once, evaluate many times, look at the pruning statistics.
	q, err := smoqe.ParseQuery("patient[*//diagnosis/text()='heart disease']")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("in XPath fragment X: %v\n", smoqe.InFragmentX(q))
	m, err := smoqe.Compile(q)
	if err != nil {
		log.Fatal(err)
	}
	plan := smoqe.PrepareMFA(m)
	res, err := plan.Eval(context.Background(), tree.Root, smoqe.EvalOptions{})
	if err != nil {
		log.Fatal(err)
	}
	st := res.Stats
	fmt.Printf("%s -> %d node(s); visited %d elements, skipped %d subtrees, cans %d vertices\n",
		q, len(res.Nodes), st.VisitedElements, st.SkippedSubtrees, st.CansVertices)
}

func show(tree *smoqe.Document, query string) {
	nodes, err := smoqe.EvalString(query, tree.Root)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-70s -> %d node(s)\n", query, len(nodes))
	for _, n := range nodes {
		fmt.Printf("    %s\n", n.Path())
	}
}
