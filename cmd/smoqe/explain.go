package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"smoqe"
)

// cmdExplain prints what the engine would do with a query: the compiled
// or rewritten MFA (Theorem 5.1 size accounting, selecting-NFA states and
// AFA annotations, optional Graphviz dot), and — given a document — a
// traced HyPE run with per-node visit/prune/AFA-eval decisions.
func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	qsrc := fs.String("query", "", "regular XPath query")
	spec := fs.String("view", "", "view specification file (query is then over the view)")
	docdtd := fs.String("docdtd", "", "source DTD file (with -view)")
	viewdtd := fs.String("viewdtd", "", "view DTD file (with -view)")
	docPath := fs.String("doc", "", "optional XML document: run a traced evaluation against it")
	engine := fs.String("engine", "hype", "hype | opthype | opthype-c (with -doc)")
	print := fs.Bool("print", false, "dump the automaton (NFA states and AFA annotations)")
	dot := fs.String("dot", "", "write the automaton as Graphviz DOT to this file ('-' for stdout)")
	trace := fs.Int("trace", 20, "print up to this many trace events (with -doc; 0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *qsrc == "" {
		return fmt.Errorf("explain: -query is required")
	}
	if *spec != "" && (*docdtd == "" || *viewdtd == "") {
		return fmt.Errorf("explain: -view requires -docdtd and -viewdtd")
	}
	var v *smoqe.View
	if *spec != "" {
		var err error
		v, err = loadView(*spec, *docdtd, *viewdtd)
		if err != nil {
			return err
		}
	}
	var doc *smoqe.Document
	if *docPath != "" {
		var err error
		doc, err = loadDoc(*docPath)
		if err != nil {
			return err
		}
	}
	return runExplain(os.Stdout, *qsrc, v, doc, *engine, *print, *dot, *trace)
}

// runExplain does the work of cmdExplain against a writer (testable).
func runExplain(w io.Writer, qsrc string, v *smoqe.View, doc *smoqe.Document, engine string, print bool, dot string, traceLimit int) error {
	q, err := smoqe.ParseQuery(qsrc)
	if err != nil {
		return err
	}
	var m *smoqe.MFA
	if v != nil {
		m, err = smoqe.Rewrite(v, q)
	} else {
		m, err = smoqe.Compile(q)
	}
	if err != nil {
		return err
	}

	pe := smoqe.ExplainPlan(q, v, m)
	fmt.Fprintf(w, "query: %s\n", qsrc)
	fmt.Fprintf(w, "|Q| = %d\n", pe.QuerySize)
	if v != nil {
		rec := ""
		if v.IsRecursive() {
			rec = ", recursive"
		}
		fmt.Fprintf(w, "view: |σ| = %d, |D_V| = %d types%s\n", pe.ViewSize, pe.ViewDTDTypes, rec)
		fmt.Fprintf(w, "rewritten MFA (Theorem 5.1):\n")
	} else {
		fmt.Fprintf(w, "compiled MFA (Theorem 4.1):\n")
	}
	fmt.Fprintf(w, "  selecting NFA: %d states, %d edges\n", pe.NFAStates, pe.NFAEdges)
	fmt.Fprintf(w, "  AFAs: %d (%d states, %d edges)\n", pe.AFACount, pe.AFAStates, pe.AFAEdges)
	fmt.Fprintf(w, "  |M| = %d, size bound = %d (ratio %.3f)\n", pe.MFASize, pe.Bound, ratio(pe.MFASize, pe.Bound))
	fmt.Fprintf(w, "  compiled: alphabet %d, NFA set %d word(s), AFA set %d word(s), DFA cache cap %d\n",
		pe.Compiled.Alphabet, pe.Compiled.NFAWords, pe.Compiled.AFAWords, pe.Compiled.DFACacheCap)
	if print {
		fmt.Fprintln(w, m)
	}
	if dot != "" {
		if dot == "-" {
			if err := m.WriteDOT(w); err != nil {
				return err
			}
		} else {
			f, err := os.Create(dot)
			if err != nil {
				return err
			}
			if err := m.WriteDOT(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	if doc == nil {
		return nil
	}

	cd := smoqe.BuildColumnar(doc)
	opts := smoqe.EvalOptions{Columnar: cd, Trace: max(traceLimit, 1)}
	switch engine {
	case "hype":
	case "opthype", "opthype-c":
		opts.Index = smoqe.BuildIndex(cd)
	default:
		return fmt.Errorf("explain: unknown engine %q (want hype, opthype or opthype-c)", engine)
	}
	res, err := smoqe.PrepareMFA(m).Eval(context.Background(), nil, opts)
	if err != nil {
		return err
	}
	st, tr := res.Stats, res.Trace
	total := cd.Stats().Elements
	fmt.Fprintf(w, "evaluation (%s):\n", engine)
	fmt.Fprintf(w, "  %d answer(s)\n", len(res.IDs))
	fmt.Fprintf(w, "  visited %d of %d elements (%.1f%% pruned), %d subtrees skipped",
		st.VisitedElements, total, 100*st.PruneRate(total), st.SkippedSubtrees)
	if st.SkippedElements > 0 {
		fmt.Fprintf(w, " (%d elements)", st.SkippedElements)
	}
	fmt.Fprintf(w, "\n  %d AFA evaluations, cans DAG: %d vertices / %d edges\n",
		st.AFAEvaluations, st.CansVertices, st.CansEdges)
	if cs := tr.Compiled; cs != nil && cs.Enabled {
		fmt.Fprintf(w, "  compiled run: %d hybrid state(s) built, %d hit(s) / %d miss(es), %d flush(es)\n",
			cs.DFAStates, cs.DFAHits, cs.DFAMisses, cs.DFAFlushes)
	}
	if traceLimit > 0 {
		fmt.Fprintf(w, "trace (first %d events):\n", len(tr.Events))
		for _, ev := range tr.Events {
			fmt.Fprintf(w, "  %-10s %-40s %s\n", ev.Kind, ev.Path, ev.Detail)
		}
		if tr.Dropped > 0 {
			fmt.Fprintf(w, "  ... %d more events dropped (raise -trace)\n", tr.Dropped)
		}
	}
	return nil
}

func ratio(size, bound int) float64 {
	if bound <= 0 {
		return 0
	}
	return float64(size) / float64(bound)
}
