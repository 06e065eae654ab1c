package mfa

import "fmt"

// Merge combines several MFAs into one automaton whose final states carry
// the index of the machine they came from (the Tag field). A single
// evaluation pass (hype.Engine.Eval, answers per tag in Result.Tagged)
// then answers all queries at once, sharing the document traversal: the
// multi-query scenario of the paper's access-control motivation, where
// many user groups' (rewritten) queries hit the same source document.
func Merge(ms []*MFA) (*MFA, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("mfa: Merge of no automata")
	}
	out := &MFA{Name: "batch"}
	// A fresh shared start state.
	out.States = append(out.States, NFAState{Guard: -1, GuardStart: -1})
	out.Start = 0
	for tag, m := range ms {
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("mfa: Merge input %d: %w", tag, err)
		}
		stateBase := len(out.States)
		afaBase := len(out.AFAs)
		out.AFAs = append(out.AFAs, m.AFAs...)
		for i := range m.States {
			st := m.States[i] // copy
			ns := NFAState{
				Guard:      -1,
				GuardStart: st.GuardStart,
				Final:      st.Final,
				Tag:        tag,
			}
			if st.Guard >= 0 {
				ns.Guard = st.Guard + afaBase
			}
			ns.Eps = make([]int, len(st.Eps))
			for j, t := range st.Eps {
				ns.Eps[j] = t + stateBase
			}
			ns.Trans = make([]Edge, len(st.Trans))
			for j, e := range st.Trans {
				ns.Trans[j] = Edge{Label: e.Label, Wild: e.Wild, To: e.To + stateBase}
			}
			out.States = append(out.States, ns)
		}
		out.States[0].Eps = append(out.States[0].Eps, m.Start+stateBase)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("mfa: Merge: internal: %w", err)
	}
	return out, nil
}

// NumTags returns 1 + the largest Tag among final states (the number of
// per-tag answer sets in hype.Result.Tagged), or 0 for an automaton without
// finals.
func (m *MFA) NumTags() int {
	n := 0
	for i := range m.States {
		if m.States[i].Final && m.States[i].Tag+1 > n {
			n = m.States[i].Tag + 1
		}
	}
	return n
}
