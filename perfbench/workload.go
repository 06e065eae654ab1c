package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"smoqe"
	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/qgen"
	"smoqe/internal/refeval"
	"smoqe/internal/view"
)

const (
	docName        = "hosp"
	viewName       = "sigma0"
	collectionName = "wards"
	// missQuery tests a constant that no generated document holds.
	missQuery = "department/patient[visit/treatment/medication/diagnosis/text()='scurvy']/pname"
)

// engines are the evaluation strategies a query request can ask for.
var engines = []string{"hype", "opthype", "columnar"}

// workloadNames lists the workloads in the order BENCHMARK.json names them.
var workloadNames = []string{"doc_hot", "plan_cold", "corpus_fanout"}

type kind int

const (
	kindQuery      kind = iota // POST /query
	kindCollection             // POST /collections/{name}/query
	kindView                   // POST /views, re-registering σ0
)

// request is one request of a workload's fixed cycle, with its expected
// answer.
type request struct {
	kind   kind
	path   string
	body   []byte
	engine string // query requests
	onView bool   // the query is posed on σ0
	query  string
	want   *answer // nil for view registrations
}

// answer is what a request must return, computed by the reference
// evaluator on a separately parsed copy of the source.
type answer struct {
	count int
	ids   []int
	paths []string    // set when the request asks for paths
	docs  []docAnswer // collection requests: documents with answers, in name order
}

type docAnswer struct {
	Doc   string `json:"doc"`
	Count int    `json:"count"`
	IDs   []int  `json:"ids"`
}

// docInput is one generated document: its XML text, and its snapshot bytes
// when a corpus stores it in the snapshot format.
type docInput struct {
	name     string
	xml      string
	snapshot []byte
}

// inputs is everything one workload run needs, derived from the seed.
type inputs struct {
	docs     []docInput // registered with POST /docs
	corpus   []docInput // files of the collection, opened with OpenCorpus
	cycle    []*request
	elements int // element count of the registered document
	// setups is how many set-ups an untraced run times (setup_s is their
	// median); the middle one serves the timed window.
	setups int
	// procs, when set, is the GOMAXPROCS the workload runs with.
	procs int
}

// sizes scales the workloads; the smoke test runs them at toy size.
type sizes struct {
	hotPatients                        int // doc_hot document
	coldCycle, coldHot, coldReregister int // plan_cold cycle length, hot pairs, view-write period
	corpusDocs, corpusMinP, corpusMaxP int // corpus_fanout documents and patients per document
	minRequests                        int // requests every timed window holds at least
	setups                             int // set-ups an untraced run times
}

var fullSize = sizes{
	hotPatients: 2000,
	coldCycle:   1000, coldHot: 64, coldReregister: 500,
	corpusDocs: 48, corpusMinP: 40, corpusMaxP: 110,
	minRequests: 1000,
	setups:      7,
}

var toySize = sizes{
	hotPatients: 30,
	coldCycle:   60, coldHot: 8, coldReregister: 30,
	corpusDocs: 6, corpusMinP: 5, corpusMaxP: 10,
	minRequests: 1,
	setups:      2,
}

// derive gives each random stream of a workload its own seed.
func derive(seed int64, stream string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return int64(h.Sum64() >> 1)
}

func buildInputs(workload string, seed int64, sz sizes, tr *tracer) (*inputs, error) {
	switch workload {
	case "doc_hot":
		return docHot(seed, sz, tr)
	case "plan_cold":
		return planCold(seed, sz, tr)
	case "corpus_fanout":
		return corpusFanout(seed, sz, tr)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

// generateXML returns a datagen hospital document as XML text.
func generateXML(patients int, seed int64, heartFrac float64) string {
	cfg := datagen.DefaultConfig(patients)
	cfg.Seed = seed
	cfg.HeartFrac = heartFrac
	return datagen.Generate(cfg).XMLString()
}

// reference parses the oracle's own copy of a document and materializes
// σ0 over it. With a tracer it also times the document layers on that copy:
// parse, columnar build, and reading back the document's snapshot.
func reference(xml string, tr *tracer) (*smoqe.Document, *view.Materialization, []byte, error) {
	sp := tr.begin("xmltree.parse", -1, -1, "")
	doc, err := smoqe.ParseDocumentString(xml)
	tr.end(sp)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("parse generated document: %w", err)
	}
	mat, err := view.Materialize(hospital.Sigma0(), doc)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("materialize σ0: %w", err)
	}
	var snap []byte
	if tr != nil {
		sp = tr.begin("colstore.build", -1, -1, "")
		cd := smoqe.BuildColumnar(doc)
		tr.end(sp)
		var buf bytes.Buffer
		if err := cd.WriteSnapshot(&buf); err != nil {
			return nil, nil, nil, fmt.Errorf("write snapshot: %w", err)
		}
		snap = buf.Bytes()
		sp = tr.begin("colstore.snapshot_read", -1, -1, "")
		_, err = smoqe.ReadSnapshot(bytes.NewReader(snap))
		tr.end(sp)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("read snapshot: %w", err)
		}
	}
	return doc, mat, snap, nil
}

// expect evaluates q with the reference evaluator: on the source, or for
// a view query on σ0(T) mapped back to the source nodes behind the answers.
func expect(q smoqe.Query, doc *smoqe.Document, mat *view.Materialization, onView, paths bool) *answer {
	var nodes []*smoqe.Node
	if onView {
		nodes = mat.SourceOf(refeval.Eval(q, mat.Doc.Root))
	} else {
		nodes = refeval.Eval(q, doc.Root)
	}
	a := &answer{count: len(nodes), ids: make([]int, len(nodes))}
	for i, n := range nodes {
		a.ids[i] = n.ID
	}
	if paths {
		a.paths = make([]string, len(nodes))
		for i, n := range nodes {
			a.paths[i] = n.Path()
		}
	}
	return a
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func queryRequest(text, engine string, onView, paths bool, want *answer) *request {
	body := map[string]any{"doc": docName, "query": text, "engine": engine}
	if onView {
		body["view"] = viewName
	}
	if paths {
		body["paths"] = true
	}
	return &request{kind: kindQuery, path: "/query", body: mustJSON(body),
		engine: engine, onView: onView, query: text, want: want}
}

func viewRequest() *request {
	return &request{kind: kindView, path: "/views", body: mustJSON(map[string]string{
		"name": viewName, "spec": hospital.Sigma0Source,
		"source_dtd": hospital.DocDTDSource, "target_dtd": hospital.ViewDTDSource,
	})}
}

// docHot: one large document, a fixed list of 27 requests (nine queries
// × three engines). After warm-up every plan is a cache hit, so time goes
// to evaluation, answer materialization and encoding.
func docHot(seed int64, sz sizes, tr *tracer) (*inputs, error) {
	xml := generateXML(sz.hotPatients, derive(seed, "doc_hot/doc"), 0.12)
	doc, mat, _, err := reference(xml, tr)
	if err != nil {
		return nil, err
	}
	type q struct {
		text          string
		onView, paths bool
	}
	qs := []q{
		{hospital.XPA, false, false}, {hospital.XPB, false, false}, {hospital.XPC, false, false},
		{hospital.RXA, false, false}, {hospital.RXB, false, false}, {hospital.RXC, false, false},
		{"//diagnosis", false, false},
		{hospital.QExample11, true, true}, {hospital.QExample41, true, true},
	}
	var cycle []*request
	for _, x := range qs {
		parsed, err := smoqe.ParseQuery(x.text)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", x.text, err)
		}
		want := expect(parsed, doc, mat, x.onView, x.paths)
		for _, e := range engines {
			cycle = append(cycle, queryRequest(x.text, e, x.onView, x.paths, want))
		}
	}
	rng := rand.New(rand.NewSource(derive(seed, "doc_hot/order")))
	rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
	return &inputs{
		docs:     []docInput{{name: docName, xml: xml}},
		cycle:    cycle,
		elements: doc.ComputeStats().Elements,
		setups:   sz.setups,
	}, nil
}

// qgenTexts are the text constants generated filters test; all occur in
// the sample document.
var qgenTexts = []string{"heart disease", "flu", "statin", "cardiology", "Alice", "ecg"}

// planCold: the 175-node sample document and σ0. Every other request
// repeats one of a few hot (query, engine) pairs; the rest are fresh qgen
// draws, half posed on σ0 and half on the source, and a view write every
// coldReregister requests drops σ0's cached plans. The cycle holds more
// distinct plans than the plan cache, so fresh draws miss on every cycle.
//
// It runs on one P. Its requests take about 0.2 ms and the single client
// keeps one in flight, so a second P adds no parallelism, only hand-offs
// that wake the other vCPU, and on a shared VM that wake-up latency, not
// the program, then sets the tail. On a 2-vCPU VM over seven seeds, the
// p99's interquartile spread was 0.76 of its median on two Ps and 0.17 on
// one.
func planCold(seed int64, sz sizes, tr *tracer) (*inputs, error) {
	xml := hospital.SampleXML
	doc, mat, _, err := reference(xml, tr)
	if err != nil {
		return nil, err
	}
	gens := map[bool]*qgen.Gen{
		false: qgen.New(hospital.DocDTD(), derive(seed, "plan_cold/doc"), qgenTexts),
		true:  qgen.New(hospital.ViewDTD(), derive(seed, "plan_cold/view"), qgenTexts),
	}
	type key struct {
		onView       bool
		text, engine string
	}
	seen := make(map[key]bool)
	draw := func(onView bool, engine string) (*request, error) {
		for {
			text := gens[onView].QueryString()
			k := key{onView, text, engine}
			if seen[k] {
				continue
			}
			seen[k] = true
			parsed, err := smoqe.ParseQuery(text)
			if err != nil {
				return nil, fmt.Errorf("reparse generated query %q: %w", text, err)
			}
			return queryRequest(text, engine, onView, false, expect(parsed, doc, mat, onView, false)), nil
		}
	}
	hot := make([]*request, sz.coldHot)
	for i := range hot {
		r, err := draw(i%2 == 0, engines[i%len(engines)])
		if err != nil {
			return nil, err
		}
		hot[i] = r
	}
	cycle := make([]*request, sz.coldCycle)
	fresh := 0
	for i := range cycle {
		switch {
		case (i+1)%sz.coldReregister == 0:
			cycle[i] = viewRequest()
		case i%2 == 0:
			cycle[i] = hot[(i/2)%len(hot)]
		default:
			r, err := draw(fresh%2 == 0, engines[fresh%len(engines)])
			if err != nil {
				return nil, err
			}
			cycle[i] = r
			fresh++
		}
	}
	return &inputs{
		docs:     []docInput{{name: docName, xml: xml}},
		cycle:    cycle,
		elements: doc.ComputeStats().Elements,
		setups:   sz.setups,
		procs:    1,
	}, nil
}

// corpusFanout: one collection of datagen documents. Every third document
// has no heart-disease diagnosis and every fourth is stored as a snapshot.
// Each request is one small evaluation per document on the fan-out pool.
func corpusFanout(seed int64, sz sizes, tr *tracer) (*inputs, error) {
	// Document sizes spread evenly over [corpusMinP, corpusMaxP]; the seed
	// only deals them out, so the collection's total size does not vary
	// with it.
	patients := make([]int, sz.corpusDocs)
	for d := range patients {
		patients[d] = sz.corpusMinP + d*(sz.corpusMaxP-sz.corpusMinP)/max(sz.corpusDocs-1, 1)
	}
	rng := rand.New(rand.NewSource(derive(seed, "corpus_fanout/sizes")))
	rng.Shuffle(len(patients), func(i, j int) { patients[i], patients[j] = patients[j], patients[i] })
	type q struct {
		text      string
		onView    bool
		prefilter bool
	}
	qs := []q{
		{hospital.XPB, false, true}, {hospital.RXC, false, true}, {hospital.XPA, false, true},
		{hospital.QExample11, true, true}, {missQuery, false, true}, {hospital.RXA, false, false},
	}
	parsed := make([]smoqe.Query, len(qs))
	for i, x := range qs {
		p, err := smoqe.ParseQuery(x.text)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", x.text, err)
		}
		parsed[i] = p
	}
	wants := make([]*answer, len(qs))
	for i := range wants {
		wants[i] = &answer{}
	}
	in := &inputs{setups: sz.setups}
	for d := 0; d < sz.corpusDocs; d++ {
		heart := 0.12
		if d%3 == 2 {
			heart = 0
		}
		xml := generateXML(patients[d], derive(seed, fmt.Sprintf("corpus_fanout/doc%d", d)), heart)
		doc, mat, snap, err := reference(xml, tr)
		if err != nil {
			return nil, err
		}
		di := docInput{name: fmt.Sprintf("ward-%02d.xml", d), xml: xml}
		if d%4 == 3 {
			if snap == nil {
				var buf bytes.Buffer
				if err := smoqe.BuildColumnar(doc).WriteSnapshot(&buf); err != nil {
					return nil, fmt.Errorf("write snapshot: %w", err)
				}
				snap = buf.Bytes()
			}
			di.name = fmt.Sprintf("ward-%02d%s", d, smoqe.SnapshotFileExt)
			di.snapshot = snap
		}
		in.corpus = append(in.corpus, di)
		for i, x := range qs {
			a := expect(parsed[i], doc, mat, x.onView, false)
			if a.count > 0 {
				wants[i].docs = append(wants[i].docs, docAnswer{Doc: di.name, Count: a.count, IDs: a.ids})
				wants[i].count += a.count
			}
		}
	}
	for _, w := range wants {
		sort.Slice(w.docs, func(i, j int) bool { return w.docs[i].Doc < w.docs[j].Doc })
	}
	for i, x := range qs {
		body := map[string]any{"query": x.text}
		if x.onView {
			body["view"] = viewName
		}
		if !x.prefilter {
			body["prefilter"] = false
		}
		in.cycle = append(in.cycle, &request{kind: kindCollection,
			path: "/collections/" + collectionName + "/query", body: mustJSON(body),
			onView: x.onView, query: x.text, want: wants[i]})
	}
	rng = rand.New(rand.NewSource(derive(seed, "corpus_fanout/order")))
	rng.Shuffle(len(in.cycle), func(i, j int) { in.cycle[i], in.cycle[j] = in.cycle[j], in.cycle[i] })
	return in, nil
}
