package smoqe

import "smoqe/internal/hype"

// PlanExplain is the size accounting of one compiled or rewritten plan —
// the numbers behind Theorem 5.1: the rewritten automaton has size
// O(|Q||σ||D_V|), so the report carries each factor next to the measured
// state and edge counts. It is what `smoqe explain` prints and what the
// HTTP API returns under "explain": true.
type PlanExplain struct {
	// QuerySize is |Q|, the AST size of the (view) query.
	QuerySize int `json:"query_size"`
	// ViewSize is |σ|, the total size of the view's annotation queries;
	// zero for plans compiled directly over the source.
	ViewSize int `json:"view_size,omitempty"`
	// ViewDTDTypes is |D_V|, the number of element types of the view DTD;
	// zero for direct plans.
	ViewDTDTypes int `json:"view_dtd_types,omitempty"`
	// Bound is the Theorem 5.1 budget instance |Q|·|σ|·|D_V| (just |Q|
	// for direct compilation, Theorem 4.1). The measured MFASize must
	// stay within a constant factor of it.
	Bound int `json:"bound"`
	// NFAStates/NFAEdges size the selecting NFA; AFACount/AFAStates/
	// AFAEdges size the filter AFAs; MFASize is their sum |M|.
	NFAStates int `json:"nfa_states"`
	NFAEdges  int `json:"nfa_edges"`
	AFACount  int `json:"afa_count"`
	AFAStates int `json:"afa_states"`
	AFAEdges  int `json:"afa_edges"`
	MFASize   int `json:"mfa_size"`
	// Compiled is the static sizing of the compiled evaluation layer for
	// this automaton: the interned transition alphabet, the uint64 words
	// encoding the NFA and AFA state sets, and the hybrid-state cache cap
	// that bounds the lazily built automaton (the full hybrid automaton is
	// exponential in the NFA and AFA sizes — the cache cap plus flushing is
	// what keeps the Theorem 5.1 accounting finite at run time). Per-run counters
	// appear on traced runs as Trace.Compiled.
	Compiled CompiledStats `json:"compiled"`
}

// ExplainPlan computes the size accounting for an automaton m that was
// compiled from q (v == nil) or rewritten from q over v. A nil q (for
// automata deserialized or merged without their source query) leaves the
// query-dependent factors zero.
func ExplainPlan(q Query, v *View, m *MFA) PlanExplain {
	pe := PlanExplain{}
	if q != nil {
		pe.QuerySize = q.Size()
		pe.Bound = q.Size()
	}
	if v != nil {
		pe.ViewSize = v.Size()
		pe.ViewDTDTypes = len(v.Target.Types())
		pe.Bound = pe.QuerySize * pe.ViewSize * pe.ViewDTDTypes
	}
	st := m.ComputeStats()
	pe.NFAStates = st.NFAStates
	pe.NFAEdges = st.NFAEdges
	pe.AFACount = st.AFACount
	pe.AFAStates = st.AFAStates
	pe.AFAEdges = st.AFAEdges
	pe.MFASize = st.Size
	pe.Compiled = hype.CompiledPlan(m)
	return pe
}
