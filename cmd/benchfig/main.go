// Command benchfig regenerates the evaluation of §7 of the paper: the
// XPath figures (Fig. 8a–c, against the two-pass JAXP-class baseline), the
// regular XPath figures (Fig. 9a–c, HyPE vs OptHyPE-C), the
// in-text pruning percentages, the Galax-stand-in comparison, and the
// Theorem 5.1 size-bound table.
//
// Document sizes sweep 10 increments like the paper's 7–70 MB corpus; the
// default unit (1,000 patients ≈ 1 MB) keeps a full run under a few
// minutes. Use -unit 10000 to match the paper's absolute sizes.
//
// Usage:
//
//	benchfig                    # everything
//	benchfig -fig 8a            # one panel
//	benchfig -pruning -unit 2000
//	benchfig -sizebound
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"smoqe"
	"smoqe/internal/datagen"
	"smoqe/internal/dtd"
	"smoqe/internal/hospital"
	"smoqe/internal/mfa"
	"smoqe/internal/rewrite"
	"smoqe/internal/twopass"
	"smoqe/internal/view"
	"smoqe/internal/xpath"
	"smoqe/internal/xqsim"
)

func main() {
	fig := flag.String("fig", "", "figure panel to run: 8a 8b 8c 9a 9b 9c (empty = all)")
	unit := flag.Int("unit", 1000, "patients per size increment (paper: 10000)")
	steps := flag.Int("steps", 10, "number of size increments (paper: 10)")
	runs := flag.Int("runs", 3, "timed runs per point (paper: ≥5)")
	pruning := flag.Bool("pruning", false, "report pruning percentages (§7 in-text)")
	galax := flag.Bool("galax", false, "report the Galax-stand-in comparison (§7 in-text)")
	sizebound := flag.Bool("sizebound", false, "report the Theorem 5.1 size-bound table")
	blowup := flag.Bool("blowup", false, "report the Corollary 3.3 blow-up table (MFA vs explicit Xreg)")
	all := flag.Bool("all", false, "run every experiment")
	flag.Parse()

	h := &harness{unit: *unit, steps: *steps, runs: *runs}

	specific := *fig != "" || *pruning || *galax || *sizebound || *blowup
	runAll := *all || !specific

	if runAll || *fig != "" {
		figs := []string{"8a", "8b", "8c", "9a", "9b", "9c"}
		if *fig != "" {
			figs = []string{*fig}
		}
		for _, f := range figs {
			if err := h.runFigure(f); err != nil {
				fmt.Fprintln(os.Stderr, "benchfig:", err)
				os.Exit(1)
			}
		}
	}
	if runAll || *pruning {
		h.runPruning()
	}
	if runAll || *galax {
		h.runGalax()
	}
	if runAll || *sizebound {
		h.runSizeBound()
	}
	if runAll || *blowup {
		h.runBlowup()
	}
}

type harness struct {
	unit  int
	steps int
	runs  int
	docs  []*smoqe.Document // lazily generated, one per size step
	cols  []*smoqe.ColumnarDocument
	idxs  []*smoqe.Index
}

func (h *harness) doc(step int) *smoqe.Document {
	for len(h.docs) < step+1 {
		cfg := datagen.DefaultConfig(h.unit * (len(h.docs) + 1))
		doc := datagen.Generate(cfg)
		h.docs = append(h.docs, doc)
		h.cols = append(h.cols, nil)
		h.idxs = append(h.idxs, nil)
	}
	return h.docs[step]
}

// col returns the columnar form of step's document, the form HyPE
// evaluates; it is built once, outside any timed region.
func (h *harness) col(step int) *smoqe.ColumnarDocument {
	h.doc(step)
	if h.cols[step] == nil {
		h.cols[step] = smoqe.BuildColumnar(h.docs[step])
	}
	return h.cols[step]
}

// idx returns the OptHyPE-C index of step's document, built once.
func (h *harness) idx(step int) *smoqe.Index {
	if h.idxs[step] == nil {
		h.idxs[step] = smoqe.BuildIndex(h.col(step))
	}
	return h.idxs[step]
}

type figureSpec struct {
	id       string
	caption  string
	query    string
	baseline bool // include the two-pass (JAXP-class) baseline
}

var figures = map[string]figureSpec{
	"8a": {"8a", "XPath, filter returning a large node set", hospital.XPA, true},
	"8b": {"8b", "XPath, filter conjunctions", hospital.XPB, true},
	"8c": {"8c", "XPath, filter disjunctions", hospital.XPC, true},
	"9a": {"9a", "regular XPath, Kleene star outside filter", hospital.RXA, false},
	"9b": {"9b", "regular XPath, filter inside Kleene star", hospital.RXB, false},
	"9c": {"9c", "regular XPath, Kleene star in filter", hospital.RXC, false},
}

func (h *harness) runFigure(id string) error {
	spec, ok := figures[id]
	if !ok {
		return fmt.Errorf("unknown figure %q (have 8a 8b 8c 9a 9b 9c)", id)
	}
	q, err := smoqe.ParseQuery(spec.query)
	if err != nil {
		return err
	}
	m, err := smoqe.Compile(q)
	if err != nil {
		return err
	}
	fmt.Printf("Fig. %s — %s\n  query: %s\n", spec.id, spec.caption, spec.query)
	cols := []string{"HyPE", "OptHyPE-C"}
	if spec.baseline {
		cols = append([]string{"TwoPass"}, cols...)
	}
	fmt.Printf("  %8s %9s", "size(MB)", "answers")
	for _, c := range cols {
		fmt.Printf(" %11s", c)
	}
	fmt.Println()
	for step := 0; step < h.steps; step++ {
		doc := h.doc(step)
		mb := float64(doc.XMLSize()) / (1 << 20)
		cd, idx := h.col(step), h.idx(step)

		var answers int
		times := make([]time.Duration, 0, len(cols))
		if spec.baseline {
			tp := twopass.MustNew(q)
			times = append(times, h.time(func() { answers = len(tp.Eval(doc.Root)) }))
		}
		p := smoqe.PrepareMFA(m)
		for _, opts := range []smoqe.EvalOptions{{Columnar: cd}, {Columnar: cd, Index: idx}} {
			times = append(times, h.time(func() { answers = len(eval(p, opts).IDs) }))
		}

		fmt.Printf("  %8.2f %9d", mb, answers)
		for _, d := range times {
			fmt.Printf(" %10.4fs", d.Seconds())
		}
		fmt.Println()
	}
	fmt.Println()
	return nil
}

// eval evaluates p over opts.Columnar; the experiment queries run without
// budgets, so any error is fatal.
func eval(p *smoqe.PreparedQuery, opts smoqe.EvalOptions) smoqe.Result {
	res, err := p.Eval(context.Background(), nil, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchfig:", err)
		os.Exit(1)
	}
	return res
}

// time reports the best (minimum) duration of fn over h.runs runs, with a
// warm-up run and a GC between runs so that garbage from document or index
// construction does not pollute the measurement.
func (h *harness) time(fn func()) time.Duration {
	runs := h.runs
	if runs < 1 {
		runs = 1
	}
	fn() // warm-up
	best := time.Duration(1<<63 - 1)
	for i := 0; i < runs; i++ {
		runtime.GC()
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// runPruning reproduces the in-text §7 numbers: "HyPE (resp. OptHyPE)
// prunes, on average, 78.2% (resp. 88%) of the element nodes for our
// example queries."
func (h *harness) runPruning() {
	step := min(2, h.steps-1)
	doc, cd, idx := h.doc(step), h.col(step), h.idx(step)
	total := cd.Stats().Elements
	fmt.Printf("Pruning rates (§7 in-text; paper: HyPE 78.2%%, OptHyPE 88%% on avg)\n")
	fmt.Printf("  document: %.2f MB, %d element nodes\n", float64(doc.XMLSize())/(1<<20), total)
	fmt.Printf("  %-6s %12s %12s\n", "query", "HyPE", "OptHyPE")
	queries := append(hospital.XPathQueries(), hospital.RegularXPathQueries()...)
	var sumH, sumO float64
	for _, nq := range queries {
		m, err := smoqe.Compile(nq.Query)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchfig:", err)
			return
		}
		p := smoqe.PrepareMFA(m)
		ph := 100 * float64(total-eval(p, smoqe.EvalOptions{Columnar: cd}).Stats.VisitedElements) / float64(total)
		po := 100 * float64(total-eval(p, smoqe.EvalOptions{Columnar: cd, Index: idx}).Stats.VisitedElements) / float64(total)
		sumH += ph
		sumO += po
		fmt.Printf("  %-6s %11.1f%% %11.1f%%\n", nq.Name, ph, po)
	}
	n := float64(len(queries))
	fmt.Printf("  %-6s %11.1f%% %11.1f%%\n\n", "avg", sumH/n, sumO/n)
}

// runGalax reproduces the in-text Galax observation: translating regular
// XPath to XQuery and running a general-purpose engine (simulated by the
// xqsim node-at-a-time, sequence-materializing evaluator) is consistently
// slower than HyPE. The paper additionally reports that Galax on the
// smallest document was slower than HyPE on the largest — a gap that also
// contains Galax's interpretive constant factor, which a Go-native
// stand-in cannot (and should not artificially) reproduce; the table
// reports both the equal-size ratios and that cross-size check.
func (h *harness) runGalax() {
	fmt.Printf("Galax stand-in (XQuery-translation evaluator) vs HyPE (§7 in-text)\n")
	fmt.Printf("  %-6s %9s %12s %12s %8s\n", "query", "size(MB)", "stand-in", "HyPE", "ratio")
	for _, nq := range hospital.RegularXPathQueries() {
		q := nq.Query
		m, err := smoqe.Compile(q)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchfig:", err)
			return
		}
		for _, step := range []int{0, h.steps - 1} {
			doc, cd := h.doc(step), h.col(step)
			tRef := h.time(func() { xqsim.Eval(q, doc.Root) })
			p := smoqe.PrepareMFA(m)
			tHype := h.time(func() { eval(p, smoqe.EvalOptions{Columnar: cd}) })
			fmt.Printf("  %-6s %9.2f %11.4fs %11.4fs %7.1fx\n",
				nq.Name, float64(doc.XMLSize())/(1<<20), tRef.Seconds(), tHype.Seconds(),
				tRef.Seconds()/tHype.Seconds())
		}
	}
	// The paper's cross-size statement.
	small, large := h.doc(0), h.doc(h.steps-1)
	largeCol := h.col(h.steps - 1)
	fmt.Printf("  cross-size check (stand-in on %.1f MB vs HyPE on %.1f MB):\n",
		float64(small.XMLSize())/(1<<20), float64(large.XMLSize())/(1<<20))
	for _, nq := range hospital.RegularXPathQueries() {
		q := nq.Query
		m, _ := smoqe.Compile(q)
		tRef := h.time(func() { xqsim.Eval(q, small.Root) })
		p := smoqe.PrepareMFA(m)
		tHype := h.time(func() { eval(p, smoqe.EvalOptions{Columnar: largeCol}) })
		verdict := "stand-in slower (paper shape holds)"
		if tRef <= tHype {
			verdict = "stand-in faster (gap below Galax's interpretive constant)"
		}
		fmt.Printf("    %-6s %10.4fs vs %10.4fs  %s\n", nq.Name, tRef.Seconds(), tHype.Seconds(), verdict)
	}
	fmt.Println()
}

// runSizeBound demonstrates Theorem 5.1: the rewritten MFA grows linearly
// in |Q| (and stays within a small constant of |Q|·|σ|·|D_V|), in contrast
// to the exponential lower bound for explicit Xreg rewritings.
func (h *harness) runSizeBound() {
	v := hospital.Sigma0()
	sigma := v.Size()
	dv := len(v.Target.Types())
	fmt.Printf("Theorem 5.1 size bound: |M| ≤ C·|Q|·|σ|·|D_V| with |σ|=%d, |D_V|=%d\n", sigma, dv)
	fmt.Printf("  %4s %6s %8s %12s %14s\n", "k", "|Q|", "|M|", "|M|/|Q|", "rewrite time")
	const step = "patient[record/diagnosis/text()='heart disease']"
	for k := 1; k <= 8; k *= 2 {
		parts := make([]string, k)
		for i := range parts {
			parts[i] = step
		}
		qsrc := strings.Join(parts, "/parent/")
		q := xpath.MustParse(qsrc)
		start := time.Now()
		m, err := rewrite.Rewrite(v, q)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchfig:", err)
			return
		}
		elapsed := time.Since(start)
		fmt.Printf("  %4d %6d %8d %12.1f %13.3fms\n",
			k, q.Size(), m.Size(), float64(m.Size())/float64(q.Size()), float64(elapsed.Microseconds())/1000)
	}
	fmt.Println()
}

// runBlowup demonstrates Corollary 3.3: over a recursive view whose DTD
// graph is the complete digraph on k types, the descendant query '**'
// rewrites into an MFA of size O(k²), while extracting an explicit Xreg
// query from that MFA (state elimination, mfa.ToXreg) blows up
// exponentially in k — the reason SMOQE evaluates MFAs directly.
func (h *harness) runBlowup() {
	fmt.Printf("Corollary 3.3 blow-up: rewriting '**' over complete recursive views\n")
	fmt.Printf("  %3s %6s %8s %16s\n", "k", "|D_V|", "|MFA|", "explicit |Q'|")
	const budget = 1 << 22
	for k := 1; k <= 7; k++ {
		v, err := completeView(k)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchfig:", err)
			return
		}
		q := xpath.MustParse("**")
		m, err := rewrite.Rewrite(v, q)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchfig:", err)
			return
		}
		back, err := mfa.ToXreg(m, budget)
		extracted := "> budget (2^22)"
		if err == nil {
			extracted = fmt.Sprintf("%d", back.Size())
		} else if !errors.Is(err, mfa.ErrBudget) {
			fmt.Fprintln(os.Stderr, "benchfig:", err)
			return
		}
		fmt.Printf("  %3d %6d %8d %16s\n", k, len(v.Target.Types()), m.Size(), extracted)
	}
	fmt.Println()
}

// completeView builds the identity view over a DTD whose k types form a
// complete digraph (every type may contain every type).
func completeView(k int) (*view.View, error) {
	var d strings.Builder
	d.WriteString("dtd ck { root t0;\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&d, "  t%d ->", i)
		for j := 0; j < k; j++ {
			if j > 0 {
				d.WriteString(",")
			}
			fmt.Fprintf(&d, " t%d*", j)
		}
		d.WriteString(";\n")
	}
	d.WriteString("}\n")
	src, err := dtd.Parse(d.String())
	if err != nil {
		return nil, err
	}
	tgt, err := dtd.Parse(d.String())
	if err != nil {
		return nil, err
	}
	var spec strings.Builder
	spec.WriteString("view identity {\n")
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			fmt.Fprintf(&spec, "  t%d/t%d = t%d;\n", i, j, j)
		}
	}
	spec.WriteString("}\n")
	return view.Parse(spec.String(), src, tgt)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
