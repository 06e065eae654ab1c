// Command smoqe is the command-line front end of the SMOQE engine: it
// evaluates regular XPath queries on XML documents, rewrites queries posed
// on views into source automata, answers view queries without
// materialization, materializes views, and validates documents against
// DTDs.
//
// Usage:
//
//	smoqe eval -query Q -doc FILE [-engine hype|opthype|opthype-c|columnar|ref|twopass] [-stats] [-parallel N]
//	smoqe snapshot save -doc FILE [-o FILE.smoqe-snapshot]
//	smoqe snapshot load -in FILE.smoqe-snapshot [-o FILE.xml]
//	smoqe rewrite -query Q -view SPEC -docdtd FILE -viewdtd FILE [-print]
//	smoqe explain -query Q [-view SPEC -docdtd FILE -viewdtd FILE] [-doc FILE] [-print] [-dot FILE] [-trace N]
//	smoqe answer -query Q -view SPEC -docdtd FILE -viewdtd FILE -doc FILE
//	smoqe materialize -view SPEC -docdtd FILE -viewdtd FILE -doc FILE [-o OUT]
//	smoqe validate -dtd FILE -doc FILE
//	smoqe trace [-server http://localhost:8640] [-id TRACEID]
//	smoqe corpus ls|reindex|query [-server http://localhost:8640] [-name COLLECTION] ...
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"smoqe"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "eval":
		err = cmdEval(os.Args[2:])
	case "rewrite":
		err = cmdRewrite(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "answer":
		err = cmdAnswer(os.Args[2:])
	case "materialize":
		err = cmdMaterialize(os.Args[2:])
	case "batch":
		err = cmdBatch(os.Args[2:])
	case "derive":
		err = cmdDerive(os.Args[2:])
	case "validate":
		err = cmdValidate(os.Args[2:])
	case "snapshot":
		err = cmdSnapshot(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "corpus":
		err = cmdCorpus(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "smoqe: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smoqe:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `smoqe — regular XPath on XML views (ICDE 2007 reproduction)

commands:
  eval         evaluate a regular XPath query on a document
  rewrite      rewrite a view query into a source MFA and report its size
  explain      print a plan's Theorem 5.1 size accounting, automaton and traced run
  answer       answer a view query on the source (rewrite + HyPE)
  materialize  materialize a view document
  batch        answer many queries in ONE document pass (optionally via a view)
  derive       derive a security view (view DTD + spec) from an access policy
  validate     validate a document against a DTD
  snapshot     save/load the columnar binary snapshot of a document
  trace        list or render request traces from a running smoqed
  corpus       list, reindex or query document collections on a running smoqed`)
}

func loadDoc(path string) (*smoqe.Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return smoqe.ParseDocument(f)
}

func loadDTD(path string) (*smoqe.DTD, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return smoqe.ParseDTD(string(b))
}

func loadView(spec, docdtd, viewdtd string) (*smoqe.View, error) {
	b, err := os.ReadFile(spec)
	if err != nil {
		return nil, err
	}
	d, err := loadDTD(docdtd)
	if err != nil {
		return nil, err
	}
	dv, err := loadDTD(viewdtd)
	if err != nil {
		return nil, err
	}
	return smoqe.ParseView(string(b), d, dv)
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	qsrc := fs.String("query", "", "regular XPath query")
	mfaPath := fs.String("mfa", "", "precompiled automaton file (from rewrite -o); replaces -query")
	docPath := fs.String("doc", "", "XML document file")
	engine := fs.String("engine", "hype", "hype | opthype | opthype-c | columnar | ref | twopass")
	stats := fs.Bool("stats", false, "print evaluation statistics")
	showPaths := fs.Bool("paths", false, "print node paths instead of a count")
	parallel := fs.Int("parallel", 0, "shard-parallel workers (automaton engines only; 0 = sequential, -1 = GOMAXPROCS)")
	maxVisited := fs.Int("max-visited", 0, "abort after visiting this many elements (automaton engines only; 0 = unlimited)")
	maxResults := fs.Int("max-results", 0, "abort after accumulating this many result candidates (automaton engines only; 0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	limits := smoqe.EvalLimits{MaxVisited: *maxVisited, MaxResultNodes: *maxResults}
	if (*qsrc == "") == (*mfaPath == "") {
		return fmt.Errorf("eval: exactly one of -query and -mfa is required")
	}
	if *docPath == "" {
		return fmt.Errorf("eval: -doc is required")
	}
	var q smoqe.Query
	var precompiled *smoqe.MFA
	if *mfaPath != "" {
		f, err := os.Open(*mfaPath)
		if err != nil {
			return err
		}
		m, err := smoqe.ReadMFA(f)
		f.Close()
		if err != nil {
			return err
		}
		precompiled = m
	} else {
		parsed, err := smoqe.ParseQuery(*qsrc)
		if err != nil {
			return err
		}
		q = parsed
	}
	// A -doc ending in the snapshot extension is loaded in O(read) in its
	// columnar form, which the automaton engines evaluate directly; only
	// the tree engines (ref, twopass) materialize a tree from it.
	var doc *smoqe.Document
	var cd *smoqe.ColumnarDocument
	if strings.HasSuffix(*docPath, smoqe.SnapshotFileExt) {
		loaded, err := smoqe.LoadSnapshot(*docPath)
		if err != nil {
			return err
		}
		cd = loaded
	} else {
		parsed, err := loadDoc(*docPath)
		if err != nil {
			return err
		}
		doc = parsed
	}
	treeEngine := func() error {
		if q == nil {
			return fmt.Errorf("eval: -mfa requires an automaton engine (hype, opthype, opthype-c, columnar)")
		}
		if *parallel != 0 && *parallel != 1 {
			return fmt.Errorf("eval: -parallel requires an automaton engine (hype, opthype, opthype-c, columnar)")
		}
		if limits != (smoqe.EvalLimits{}) {
			return fmt.Errorf("eval: -max-visited/-max-results require an automaton engine (hype, opthype, opthype-c, columnar)")
		}
		if doc == nil {
			doc = cd.Tree()
		}
		return nil
	}
	var paths []string // filled with -paths
	count := 0
	var res *smoqe.Result // automaton engines only
	switch *engine {
	case "hype", "opthype", "opthype-c", "columnar":
		m := precompiled
		if m == nil {
			compiled, err := smoqe.Compile(q)
			if err != nil {
				return err
			}
			m = compiled
		}
		if cd == nil {
			cd = smoqe.BuildColumnar(doc)
		}
		opts := smoqe.EvalOptions{Columnar: cd, Workers: workersFlag(*parallel), Limits: limits}
		if *engine == "opthype" || *engine == "opthype-c" {
			opts.Index = smoqe.BuildIndex(cd)
		}
		r, err := smoqe.PrepareMFA(m).Eval(context.Background(), nil, opts)
		if err != nil {
			return err
		}
		res = &r
		count = len(res.IDs)
		if *showPaths {
			paths = cd.Paths(res.IDs)
		}
		if opts.Workers > 0 && *stats {
			fmt.Printf("parallel: %d shards on %d workers (%d spine nodes)\n",
				res.Shards, res.Workers, res.SpineNodes)
		}
	case "ref", "twopass":
		if err := treeEngine(); err != nil {
			return err
		}
		var nodes []*smoqe.Node
		if *engine == "ref" {
			nodes = smoqe.EvalReference(q, doc.Root)
		} else {
			var err error
			if nodes, err = smoqe.EvalTwoPass(q, doc.Root); err != nil {
				return err
			}
		}
		count = len(nodes)
		if *showPaths {
			for _, n := range nodes {
				paths = append(paths, n.Path())
			}
		}
	default:
		return fmt.Errorf("eval: unknown engine %q", *engine)
	}
	fmt.Printf("%d node(s)\n", count)
	for _, p := range paths {
		fmt.Println(" ", p)
	}
	if *stats && res != nil {
		st := res.Stats
		total := cd.Stats().Elements
		fmt.Printf("visited %d of %d elements (%.1f%% pruned), skipped %d subtrees, cans: %d vertices / %d edges, AFA evals: %d\n",
			st.VisitedElements, total, 100*st.PruneRate(total),
			st.SkippedSubtrees, st.CansVertices, st.CansEdges, st.AFAEvaluations)
	}
	return nil
}

// workersFlag maps a -parallel flag to EvalOptions.Workers: 0 and 1 mean
// sequential, negative means GOMAXPROCS.
func workersFlag(parallel int) int {
	switch {
	case parallel < 0:
		return runtime.GOMAXPROCS(0)
	case parallel == 1:
		return 0
	}
	return parallel
}

func cmdRewrite(args []string) error {
	fs := flag.NewFlagSet("rewrite", flag.ExitOnError)
	qsrc := fs.String("query", "", "query over the view DTD")
	spec := fs.String("view", "", "view specification file")
	docdtd := fs.String("docdtd", "", "source DTD file")
	viewdtd := fs.String("viewdtd", "", "view DTD file")
	print := fs.Bool("print", false, "dump the rewritten MFA")
	dot := fs.String("dot", "", "write the rewritten MFA as Graphviz DOT to this file")
	out := fs.String("o", "", "write the rewritten MFA in binary form to this file (load with eval -mfa)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *qsrc == "" || *spec == "" || *docdtd == "" || *viewdtd == "" {
		return fmt.Errorf("rewrite: -query, -view, -docdtd and -viewdtd are required")
	}
	v, err := loadView(*spec, *docdtd, *viewdtd)
	if err != nil {
		return err
	}
	q, err := smoqe.ParseQuery(*qsrc)
	if err != nil {
		return err
	}
	m, err := smoqe.Rewrite(v, q)
	if err != nil {
		return err
	}
	st := m.ComputeStats()
	fmt.Printf("query size |Q| = %d, view size |σ| = %d, view DTD types = %d\n",
		q.Size(), v.Size(), len(v.Target.Types()))
	fmt.Printf("rewritten MFA: %d NFA states, %d NFA edges, %d AFAs (%d states, %d edges), |M| = %d\n",
		st.NFAStates, st.NFAEdges, st.AFACount, st.AFAStates, st.AFAEdges, st.Size)
	if *print {
		fmt.Println(m)
	}
	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := m.WriteDOT(f); err != nil {
			return err
		}
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := m.WriteBinary(f); err != nil {
			return err
		}
	}
	return nil
}

func cmdAnswer(args []string) error {
	fs := flag.NewFlagSet("answer", flag.ExitOnError)
	qsrc := fs.String("query", "", "query over the view DTD")
	spec := fs.String("view", "", "view specification file")
	docdtd := fs.String("docdtd", "", "source DTD file")
	viewdtd := fs.String("viewdtd", "", "view DTD file")
	docPath := fs.String("doc", "", "source XML document")
	showPaths := fs.Bool("paths", false, "print source node paths")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *qsrc == "" || *spec == "" || *docdtd == "" || *viewdtd == "" || *docPath == "" {
		return fmt.Errorf("answer: -query, -view, -docdtd, -viewdtd and -doc are required")
	}
	v, err := loadView(*spec, *docdtd, *viewdtd)
	if err != nil {
		return err
	}
	q, err := smoqe.ParseQuery(*qsrc)
	if err != nil {
		return err
	}
	doc, err := loadDoc(*docPath)
	if err != nil {
		return err
	}
	nodes, err := smoqe.AnswerOnView(v, q, doc)
	if err != nil {
		return err
	}
	fmt.Printf("%d node(s)\n", len(nodes))
	if *showPaths {
		for _, n := range nodes {
			fmt.Println(" ", n.Path())
		}
	}
	return nil
}

func cmdMaterialize(args []string) error {
	fs := flag.NewFlagSet("materialize", flag.ExitOnError)
	spec := fs.String("view", "", "view specification file")
	docdtd := fs.String("docdtd", "", "source DTD file")
	viewdtd := fs.String("viewdtd", "", "view DTD file")
	docPath := fs.String("doc", "", "source XML document")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spec == "" || *docdtd == "" || *viewdtd == "" || *docPath == "" {
		return fmt.Errorf("materialize: -view, -docdtd, -viewdtd and -doc are required")
	}
	v, err := loadView(*spec, *docdtd, *viewdtd)
	if err != nil {
		return err
	}
	doc, err := loadDoc(*docPath)
	if err != nil {
		return err
	}
	mat, err := smoqe.Materialize(v, doc)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return mat.Doc.WriteXML(w, true)
}

// cmdDerive turns an access-control policy into a security view: it prints
// (or writes) the derived view DTD and view specification, ready for the
// rewrite/answer/materialize commands.
func cmdDerive(args []string) error {
	fs := flag.NewFlagSet("derive", flag.ExitOnError)
	dtdPath := fs.String("dtd", "", "document DTD file")
	policyPath := fs.String("policy", "", "policy file")
	outSpec := fs.String("o", "", "write the view specification here (default stdout)")
	outDTD := fs.String("dtdout", "", "write the view DTD here (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dtdPath == "" || *policyPath == "" {
		return fmt.Errorf("derive: -dtd and -policy are required")
	}
	d, err := loadDTD(*dtdPath)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(*policyPath)
	if err != nil {
		return err
	}
	p, err := smoqe.ParsePolicy(string(raw))
	if err != nil {
		return err
	}
	v, err := smoqe.DeriveView(d, p)
	if err != nil {
		return err
	}
	writeOut := func(path, content string) error {
		if path == "" {
			fmt.Print(content)
			return nil
		}
		return os.WriteFile(path, []byte(content), 0o644)
	}
	if err := writeOut(*outDTD, v.Target.String()); err != nil {
		return err
	}
	return writeOut(*outSpec, v.String())
}

// cmdBatch evaluates every query of a file (one per line, '#' comments)
// against a document in a single pass: the queries are compiled (or, with
// a view, rewritten), merged into one batch automaton, and answered with
// one HyPE traversal.
func cmdBatch(args []string) error {
	fs := flag.NewFlagSet("batch", flag.ExitOnError)
	queriesPath := fs.String("queries", "", "file with one query per line ('#' comments)")
	docPath := fs.String("doc", "", "XML document file")
	spec := fs.String("view", "", "optional view specification (queries are then over the view)")
	docdtd := fs.String("docdtd", "", "source DTD file (with -view)")
	viewdtd := fs.String("viewdtd", "", "view DTD file (with -view)")
	stats := fs.Bool("stats", false, "print per-query visited/skipped/prune-rate (runs each query individually after the batch pass)")
	parallel := fs.Int("parallel", 0, "shard-parallel workers for the batch pass (0 = sequential, -1 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *queriesPath == "" || *docPath == "" {
		return fmt.Errorf("batch: -queries and -doc are required")
	}
	raw, err := os.ReadFile(*queriesPath)
	if err != nil {
		return err
	}
	var v *smoqe.View
	if *spec != "" {
		if *docdtd == "" || *viewdtd == "" {
			return fmt.Errorf("batch: -view requires -docdtd and -viewdtd")
		}
		v, err = loadView(*spec, *docdtd, *viewdtd)
		if err != nil {
			return err
		}
	}
	var srcs []string
	var ms []*smoqe.MFA
	for lineNo, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		q, err := smoqe.ParseQuery(line)
		if err != nil {
			return fmt.Errorf("batch: line %d: %w", lineNo+1, err)
		}
		var m *smoqe.MFA
		if v != nil {
			m, err = smoqe.Rewrite(v, q)
		} else {
			m, err = smoqe.Compile(q)
		}
		if err != nil {
			return fmt.Errorf("batch: line %d: %w", lineNo+1, err)
		}
		srcs = append(srcs, line)
		ms = append(ms, m)
	}
	if len(ms) == 0 {
		return fmt.Errorf("batch: no queries in %s", *queriesPath)
	}
	merged, err := smoqe.Merge(ms)
	if err != nil {
		return err
	}
	doc, err := loadDoc(*docPath)
	if err != nil {
		return err
	}
	cd := smoqe.BuildColumnar(doc)
	workers := workersFlag(*parallel)
	res, err := smoqe.PrepareMFA(merged).Eval(context.Background(), nil, smoqe.EvalOptions{Columnar: cd, Workers: workers})
	if err != nil {
		return err
	}
	if workers > 0 {
		fmt.Printf("parallel batch pass: %d shards on %d workers\n", res.Shards, res.Workers)
	}
	results, st := res.TaggedIDs, res.Stats
	total := cd.Stats().Elements
	if *stats {
		// §7-style experiment table: each query also runs on its own
		// engine, so the visited/skipped/prune-rate columns are that
		// query's, not the shared batch pass's.
		fmt.Printf("%6s  %8s  %8s  %7s  %s\n", "count", "visited", "skipped", "prune%", "query")
		for i, src := range srcs {
			n := 0
			if i < len(results) {
				n = len(results[i])
			}
			qres, err := smoqe.PrepareMFA(ms[i]).Eval(context.Background(), nil, smoqe.EvalOptions{Columnar: cd})
			if err != nil {
				return err
			}
			qst := qres.Stats
			fmt.Printf("%6d  %8d  %8d  %6.1f%%  %s\n",
				n, qst.VisitedElements, qst.SkippedSubtrees, 100*qst.PruneRate(total), src)
		}
	} else {
		for i, src := range srcs {
			n := 0
			if i < len(results) {
				n = len(results[i])
			}
			fmt.Printf("%6d  %s\n", n, src)
		}
	}
	fmt.Printf("one pass over %d elements answered %d queries (visited %d, %.1f%% pruned)\n",
		total, len(srcs), st.VisitedElements, 100*st.PruneRate(total))
	return nil
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	dtdPath := fs.String("dtd", "", "DTD file")
	docPath := fs.String("doc", "", "XML document")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dtdPath == "" || *docPath == "" {
		return fmt.Errorf("validate: -dtd and -doc are required")
	}
	d, err := loadDTD(*dtdPath)
	if err != nil {
		return err
	}
	doc, err := loadDoc(*docPath)
	if err != nil {
		return err
	}
	if err := d.CheckDocument(doc); err != nil {
		return err
	}
	st := doc.ComputeStats()
	fmt.Printf("valid: %d elements, %d text nodes, depth %d\n", st.Elements, st.Texts, st.MaxDepth)
	return nil
}

// cmdSnapshot converts between XML documents and columnar binary
// snapshots: "save" parses a document once and writes the snapshot a
// daemon (smoqed -snapshot-dir) or later eval loads in O(read); "load"
// verifies a snapshot and reports its shape (optionally writing the
// round-tripped XML).
func cmdSnapshot(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("snapshot: want 'save' or 'load'")
	}
	switch args[0] {
	case "save":
		return cmdSnapshotSave(args[1:])
	case "load":
		return cmdSnapshotLoad(args[1:])
	default:
		return fmt.Errorf("snapshot: unknown subcommand %q (want 'save' or 'load')", args[0])
	}
}

func cmdSnapshotSave(args []string) error {
	fs := flag.NewFlagSet("snapshot save", flag.ExitOnError)
	docPath := fs.String("doc", "", "XML document file")
	out := fs.String("o", "", "output snapshot file (default: -doc with its extension replaced)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *docPath == "" {
		return fmt.Errorf("snapshot save: -doc is required")
	}
	doc, err := loadDoc(*docPath)
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = strings.TrimSuffix(*docPath, ".xml") + smoqe.SnapshotFileExt
	}
	cd := smoqe.BuildColumnar(doc)
	if err := smoqe.SaveSnapshot(cd, path); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d nodes, %d labels, %d arena bytes → %d file bytes\n",
		path, cd.NumNodes(), cd.NumLabels(), cd.ArenaSize(), info.Size())
	return nil
}

func cmdSnapshotLoad(args []string) error {
	fs := flag.NewFlagSet("snapshot load", flag.ExitOnError)
	in := fs.String("in", "", "snapshot file")
	out := fs.String("o", "", "write the round-tripped XML document here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("snapshot load: -in is required")
	}
	cd, err := smoqe.LoadSnapshot(*in)
	if err != nil {
		return err
	}
	st := cd.Stats()
	fmt.Printf("loaded %s: %d elements, %d text nodes, depth %d, %d labels, %d arena bytes\n",
		*in, st.Elements, st.Texts, st.MaxDepth, cd.NumLabels(), cd.ArenaSize())
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		return cd.Tree().WriteXML(f, true)
	}
	return nil
}
