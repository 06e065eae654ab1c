package smoqe_test

import (
	"context"
	"fmt"
	"log"

	"smoqe"
)

const exampleXML = `<hospital>
  <patient>
    <parent>
      <patient><record><diagnosis>heart disease</diagnosis></record></patient>
    </parent>
    <record><diagnosis>flu</diagnosis></record>
  </patient>
  <patient><record><diagnosis>heart disease</diagnosis></record></patient>
</hospital>`

func ExampleEvalString() {
	doc, err := smoqe.ParseDocumentString(exampleXML)
	if err != nil {
		log.Fatal(err)
	}
	nodes, err := smoqe.EvalString(
		"(patient/parent)*/patient[record/diagnosis/text()='heart disease']", doc.Root)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(nodes), "patients")
	// Output: 2 patients
}

func ExampleCompile() {
	doc, _ := smoqe.ParseDocumentString(exampleXML)
	q, err := smoqe.ParseQuery("patient[parent//diagnosis/text()='heart disease']")
	if err != nil {
		log.Fatal(err)
	}
	m, err := smoqe.Compile(q) // query → MFA, once
	if err != nil {
		log.Fatal(err)
	}
	p := smoqe.PrepareMFA(m) // HyPE plan, reusable from any goroutine
	res, err := p.Eval(context.Background(), doc.Root, smoqe.EvalOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(res.Nodes), "answers")
	// Output: 1 answers
}

func ExampleAnswerOnView() {
	docDTD, _ := smoqe.ParseDTD(`dtd src {
		root r;
		r -> person*;
		person -> name, secret, item*;
		item -> #text; name -> #text; secret -> #text;
	}`)
	viewDTD, _ := smoqe.ParseDTD(`dtd pub {
		root r;
		r -> entry*;
		entry -> item*;
		item -> #text;
	}`)
	v, err := smoqe.ParseView(`view pub {
		r/entry = person;
		entry/item = item;
	}`, docDTD, viewDTD)
	if err != nil {
		log.Fatal(err)
	}
	doc, _ := smoqe.ParseDocumentString(
		`<r><person><name>n</name><secret>s</secret><item>book</item></person></r>`)

	q, _ := smoqe.ParseQuery("entry/item[text()='book']")
	visible, _ := smoqe.AnswerOnView(v, q, doc)

	qs, _ := smoqe.ParseQuery("entry/secret") // not in the view
	hidden, _ := smoqe.AnswerOnView(v, qs, doc)

	fmt.Println(len(visible), "visible,", len(hidden), "hidden")
	// Output: 1 visible, 0 hidden
}

func ExampleInFragmentX() {
	q1, _ := smoqe.ParseQuery("a//b[c]")
	q2, _ := smoqe.ParseQuery("(a/b)*")
	fmt.Println(smoqe.InFragmentX(q1), smoqe.InFragmentX(q2))
	// Output: true false
}

func ExampleToXreg() {
	q, _ := smoqe.ParseQuery("(a/b)*/c")
	m, _ := smoqe.Compile(q)
	back, err := smoqe.ToXreg(m, 0)
	if err != nil {
		log.Fatal(err)
	}
	// The extracted query is equivalent (not necessarily identical).
	fmt.Println(back.Size() > 0)
	// Output: true
}
