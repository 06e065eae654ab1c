package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// options configure one run.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	size      sizes
	workDir   string // corpus files; removed at the end
	spansPath string // span dump of a traced run
	// corrupt makes one expected answer wrong, to prove the check catches it.
	corrupt bool
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: doc_hot, plan_cold or corpus_fanout")
	seed := fs.Int64("seed", 1, "seed every input and request sequence derives from")
	seconds := fs.Float64("seconds", 35, "length of the timed window in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloadNames, *workload) || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "usage: perfbench --workload %v --seed N --seconds S --trace 0|1\n", workloadNames)
		return 2
	}
	o := options{
		workload:  *workload,
		seed:      *seed,
		seconds:   *seconds,
		trace:     *traceFlag == 1,
		size:      fullSize,
		workDir:   filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", *workload, os.Getpid())),
		spansPath: filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed)),
	}
	return run(o, stdout, stderr)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one run and returns the exit code: 0 when every answer was
// right, 1 otherwise (the result line is still printed when the run got
// as far as measuring).
func run(o options, stdout, stderr io.Writer) int {
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	in, err := buildInputs(o.workload, o.seed, o.size, tr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if o.corrupt {
		corrupt(in)
	}
	if in.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(in.procs))
	}
	regBodies := make([][]byte, len(in.docs))
	for i, d := range in.docs {
		regBodies[i] = mustJSON(map[string]string{"name": d.name, "xml": d.xml})
	}
	defer os.RemoveAll(o.workDir)

	rep := &report{}
	base, err := untracedRun(o, in, regBodies, rep)
	if err == nil && o.trace {
		err = tracedRun(o, in, regBodies, tr, base, rep)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d trace=%t gomaxprocs=%d\n",
		o.workload, o.seed, o.trace, runtime.GOMAXPROCS(0))
	rep.print(out)
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "perfbench:", p)
	}
	res := result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.attempted - rep.ok,
		Metrics:   make(map[string]metricValue, len(rep.metrics)),
	}
	for _, m := range rep.metrics {
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

// corrupt makes the first query's expected answer wrong.
func corrupt(in *inputs) {
	for _, r := range in.cycle {
		if r.want != nil {
			w := *r.want
			w.count++
			w.ids = append(slices.Clone(w.ids), -1)
			r.want = &w
			return
		}
	}
}

// untracedRun times in.setups set-ups (setup_s is their median) and one
// timed window of whole cycles, measured end to end. The first half of the
// set-ups come before the window, and the last of those serves it; the
// rest come after it, so that the set-up times sample the same stretch of
// the machine's load as the window. It returns the window.
func untracedRun(o options, in *inputs, regBodies [][]byte, rep *report) (*window, error) {
	setups := make([]float64, 0, in.setups)
	timedSetUp := func(k int) (*harness, error) {
		dir, err := corpusDir(o, in, k)
		if err != nil {
			return nil, err
		}
		h, d, err := setUp(in, regBodies, dir, nil)
		if h == nil {
			return nil, err
		}
		if err != nil {
			rep.problems = append(rep.problems, err.Error())
		}
		setups = append(setups, d.Seconds())
		return h, nil
	}
	throwaway := func(k int) error {
		h, err := timedSetUp(k)
		if err != nil {
			return err
		}
		return h.stop()
	}
	before := (in.setups + 1) / 2
	for k := 0; k < before-1; k++ {
		if err := throwaway(k); err != nil {
			return nil, err
		}
	}
	heap0 := liveHeap()
	h, err := timedSetUp(before - 1)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	w := h.run(in.cycle, o.seconds, int64(o.size.minRequests), nil)
	rep.window(w)
	rep.endToEnd(w)
	w.lat = nil // client bookkeeping, not server memory
	heapLive := float64(liveHeap()) - float64(heap0)
	rep.connections(h)
	if err := h.stop(); err != nil {
		return nil, err
	}
	for k := before; k < in.setups; k++ {
		if err := throwaway(k); err != nil {
			return nil, err
		}
	}
	rep.add("setup_s", quantile(setups, 0.5), "s", int64(len(setups)))
	rep.add("heap_live_mb", heapLive/(1<<20), "MiB", 1)
	return w, nil
}

// tracedRun sets up once more, with spans on the set-up calls, then sends
// whole cycles for half the window length with every request traced, and
// computes the per-layer metrics. The untraced window base is the
// reference for trace overhead, the runtime counters and the exact counts
// the traced pass must repeat. The end-to-end metrics base produced stay
// in the printed table but leave the result line.
func tracedRun(o options, in *inputs, regBodies [][]byte, tr *tracer, base *window, rep *report) error {
	rep.printed, rep.metrics = rep.metrics, nil
	dir, err := corpusDir(o, in, in.setups)
	if err != nil {
		return err
	}
	h, _, err := setUp(in, regBodies, dir, tr)
	if h == nil {
		return err
	}
	if err != nil {
		rep.problems = append(rep.problems, err.Error())
	}
	runtime.GC()
	tw := h.run(in.cycle, o.seconds/2, 0, tr)
	rep.window(tw)
	if diff := sameCounts(base.counts, tw.counts); diff != "" {
		rep.problems = append(rep.problems, "counts differ between the untraced and the traced pass: "+diff)
	}
	rep.perLayer(in, base, tw, tr)
	rep.connections(h)
	if err := h.stop(); err != nil {
		return err
	}
	rep.layers = layerTable(tr.spans)
	if err := tr.dump(o.spansPath); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	rep.spansPath = o.spansPath
	return nil
}

// corpusDir writes a fresh copy of the collection for set-up k and returns
// the corpus root ("" for workloads without a collection).
func corpusDir(o options, in *inputs, k int) (string, error) {
	if len(in.corpus) == 0 {
		return "", nil
	}
	dir := filepath.Join(o.workDir, fmt.Sprintf("corpus-%d", k))
	if err := writeCorpus(dir, in.corpus); err != nil {
		return "", fmt.Errorf("write corpus: %w", err)
	}
	return dir, nil
}
