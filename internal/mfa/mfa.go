package mfa

import (
	"fmt"
	"strings"
)

// Edge is a labeled transition of the selecting NFA: the run moves from the
// current tree node to an element child matching Label (or any element
// child if Wild).
type Edge struct {
	Label string
	Wild  bool
	To    int
}

// Matches reports whether the edge fires on an element child labeled lbl.
func (e Edge) Matches(lbl string) bool { return e.Wild || e.Label == lbl }

func (e Edge) stepString() string {
	if e.Wild {
		return "*"
	}
	return e.Label
}

// NFAState is a state of the selecting NFA N_s of an MFA. The partial map
// λ of the paper (annotating states with AFA names X_i) is the Guard field.
type NFAState struct {
	// Eps are ε-transitions (the run stays at the same tree node).
	Eps []int
	// Trans are child transitions.
	Trans []Edge
	// Guard is the index of the AFA that must hold at a tree node for the
	// run to occupy this state there; -1 if unguarded.
	Guard int
	// GuardStart optionally overrides the entry state of the guard AFA
	// (-1 uses the AFA's own Start). The rewriting algorithm shares one
	// product AFA among many guarded states, each entering at the product
	// state matching its view type; this keeps the rewritten automaton
	// within the O(|Q||σ||D_V|) bound of Theorem 5.1.
	GuardStart int
	// Final marks answer states: when the run occupies a final state at
	// node n (with its guard true), n belongs to the answer set.
	Final bool
	// Tag groups final states into result buckets for batch evaluation
	// (see Merge); single automata leave it 0.
	Tag int
}

// GuardEntry returns the effective AFA entry state for a guarded NFA state,
// or -1 if the state is unguarded.
func (m *MFA) GuardEntry(s int) int {
	st := &m.States[s]
	if st.Guard < 0 {
		return -1
	}
	if st.GuardStart >= 0 {
		return st.GuardStart
	}
	return m.AFAs[st.Guard].Start
}

// MFA is a mixed finite state automaton (N_s, A): a selecting NFA whose
// states may be guarded by AFAs (§4).
type MFA struct {
	Name   string
	States []NFAState
	Start  int
	AFAs   []*AFA
}

// NumStates returns the number of NFA states.
func (m *MFA) NumStates() int { return len(m.States) }

// Size is |M|: NFA states plus NFA edges plus the sizes of all AFAs. It is
// the quantity bounded by O(|Q||σ||D_V|) in Theorem 5.1.
func (m *MFA) Size() int {
	n := len(m.States)
	for i := range m.States {
		n += len(m.States[i].Eps) + len(m.States[i].Trans)
	}
	for _, a := range m.AFAs {
		n += a.NumStates() + a.NumEdges()
	}
	return n
}

// Validate checks internal consistency: indices in range, guards frozen.
func (m *MFA) Validate() error {
	if m.Start < 0 || m.Start >= len(m.States) {
		return fmt.Errorf("mfa: start state %d out of range", m.Start)
	}
	for i := range m.States {
		st := &m.States[i]
		for _, e := range st.Eps {
			if e < 0 || e >= len(m.States) {
				return fmt.Errorf("mfa: state %d: ε-target %d out of range", i, e)
			}
		}
		for _, e := range st.Trans {
			if e.To < 0 || e.To >= len(m.States) {
				return fmt.Errorf("mfa: state %d: target %d out of range", i, e.To)
			}
			if !e.Wild && e.Label == "" {
				return fmt.Errorf("mfa: state %d: transition without label", i)
			}
		}
		if st.Guard >= len(m.AFAs) {
			return fmt.Errorf("mfa: state %d: guard %d out of range (%d AFAs)", i, st.Guard, len(m.AFAs))
		}
		if st.Guard >= 0 && st.GuardStart >= len(m.AFAs[st.Guard].States) {
			return fmt.Errorf("mfa: state %d: guard start %d out of range", i, st.GuardStart)
		}
		// Tags index result buckets; Merge assigns one per input machine,
		// so they can never reach the state count. The bound keeps a
		// forged serialized automaton from driving a NumTags()-sized
		// allocation of per-tag answers (hype.Result.Tagged).
		if st.Tag < 0 || st.Tag >= len(m.States) {
			return fmt.Errorf("mfa: state %d: tag %d out of range", i, st.Tag)
		}
	}
	// An MFA without final states is legal: it denotes the empty query
	// (e.g. a view query whose steps match no view-DTD edge).
	for i, a := range m.AFAs {
		if !a.frozen {
			return fmt.Errorf("mfa: AFA %d not frozen", i)
		}
	}
	return nil
}

// EpsClosure returns the ε-closure of the given states, ignoring guards
// (guards are checked against tree nodes during evaluation). The result is
// a deduplicated state list in discovery order.
func (m *MFA) EpsClosure(states []int) []int {
	seen := make([]bool, len(m.States))
	var out []int
	var stack []int
	for _, s := range states {
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
			out = append(out, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range m.States[s].Eps {
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
				out = append(out, t)
			}
		}
	}
	return out
}

// String renders the MFA for debugging: the selecting NFA followed by its
// AFAs, in the spirit of Fig. 3 of the paper.
func (m *MFA) String() string {
	var b strings.Builder
	name := m.Name
	if name == "" {
		name = "MFA"
	}
	fmt.Fprintf(&b, "%s(start=%d)\n", name, m.Start)
	for i := range m.States {
		st := &m.States[i]
		fmt.Fprintf(&b, "  %3d", i)
		if i == m.Start {
			b.WriteString(" S")
		} else {
			b.WriteString("  ")
		}
		if st.Final {
			b.WriteString(" F")
		} else {
			b.WriteString("  ")
		}
		if st.Guard >= 0 {
			fmt.Fprintf(&b, " λ=X%d", st.Guard)
		}
		for _, e := range st.Eps {
			fmt.Fprintf(&b, "  --ε--> %d", e)
		}
		for _, e := range st.Trans {
			fmt.Fprintf(&b, "  --%s--> %d", e.stepString(), e.To)
		}
		b.WriteString("\n")
	}
	for i, a := range m.AFAs {
		fmt.Fprintf(&b, "X%d = %s", i, a.String())
	}
	return b.String()
}

// Stats summarizes MFA sizes for the Theorem 5.1 experiments.
type Stats struct {
	NFAStates int
	NFAEdges  int
	AFACount  int
	AFAStates int
	AFAEdges  int
	Size      int
}

// ComputeStats returns the size breakdown of the MFA.
func (m *MFA) ComputeStats() Stats {
	st := Stats{NFAStates: len(m.States), AFACount: len(m.AFAs)}
	for i := range m.States {
		st.NFAEdges += len(m.States[i].Eps) + len(m.States[i].Trans)
	}
	for _, a := range m.AFAs {
		st.AFAStates += a.NumStates()
		st.AFAEdges += a.NumEdges()
	}
	st.Size = st.NFAStates + st.NFAEdges + st.AFAStates + st.AFAEdges
	return st
}
