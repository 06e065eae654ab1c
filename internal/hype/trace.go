package hype

import "smoqe/internal/colstore"

// TraceKind classifies one recorded decision of a traced HyPE run.
type TraceKind string

const (
	// TraceVisit: the DFS entered an element node; the detail reports how
	// many NFA states and AFAs were active there.
	TraceVisit TraceKind = "visit"
	// TracePrune: a child subtree was skipped, either because no active
	// state had a matching transition ("no-transition") or because the
	// index proved no progress possible against the subtree's alphabet
	// ("index-alphabet", OptHyPE only).
	TracePrune TraceKind = "prune"
	// TraceAFAEval: a filter AFA was evaluated bottom-up at the node.
	TraceAFAEval TraceKind = "afa-eval"
	// TraceGuardFail: a cans vertex was killed because its guard AFA came
	// out false (lines 14–15 of PCans).
	TraceGuardFail TraceKind = "guard-fail"
)

// TraceEvent is one recorded decision: what happened at which node.
type TraceEvent struct {
	Kind TraceKind `json:"kind"`
	// Node is the preorder id of the node the decision concerns.
	Node int `json:"node"`
	// Label is the node's element tag.
	Label string `json:"label"`
	// Depth is the node's depth below the document root.
	Depth int `json:"depth"`
	// Path is the node's slash path (computed only in trace mode).
	Path string `json:"path"`
	// Detail carries kind-specific information (active state counts, the
	// prune reason, the AFA evaluated, the guard that failed).
	Detail string `json:"detail,omitempty"`
}

// DefaultTraceLimit is the trace cap (Options.Trace) servers use unless
// configured otherwise: deep documents generate one event per visited
// node, so an unbounded trace of a large run would dwarf the answer
// itself.
const DefaultTraceLimit = 1000

// Trace is the capped event log of one traced evaluation.
type Trace struct {
	// Limit is the maximum number of events recorded.
	Limit int `json:"limit"`
	// Events holds up to Limit events in decision order.
	Events []TraceEvent `json:"events"`
	// Dropped counts events beyond Limit that were discarded.
	Dropped int `json:"dropped"`
	// Compiled carries the run's compiled-layer statistics (hybrid-state
	// cache counters, bitset sizing).
	Compiled *CompiledStats `json:"compiled,omitempty"`
}

// add records one decision about node n of cd.
func (t *Trace) add(cd *colstore.Document, n int32, kind TraceKind, detail string) {
	if len(t.Events) >= t.Limit {
		t.Dropped++
		return
	}
	t.Events = append(t.Events, TraceEvent{
		Kind:   kind,
		Node:   int(n),
		Label:  cd.Label(n),
		Depth:  int(cd.Depth(n)),
		Path:   cd.Path(n),
		Detail: detail,
	})
}
