package mfa

import (
	"fmt"

	"smoqe/internal/xpath"
)

// Compile translates an Xreg query into an equivalent MFA (the practical
// direction of Theorem 4.1). The construction is Thompson-style for the
// selecting NFA; every filter becomes one AFA (nested filters are flattened
// into the same AFA, per Example 5.2) and guards the fresh state appended
// after the filtered sub-path.
func Compile(q xpath.Path) (*MFA, error) {
	b := NewBuilder()
	frag, err := b.CompilePath(q)
	if err != nil {
		return nil, err
	}
	m := b.Finish(frag)
	m.Name = "MFA(" + q.String() + ")"
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// MustCompile is Compile but panics on error.
func MustCompile(q xpath.Path) *MFA {
	m, err := Compile(q)
	if err != nil {
		panic(err)
	}
	return m
}

// Frag is an NFA fragment with a unique entry and exit state. Fragments
// compose by ε-transitions.
type Frag struct {
	Start, End int
}

// Builder incrementally constructs an MFA. It is exported (within the
// module) so that the view-rewriting algorithm can splice compiled
// fragments of the view definition into the product automaton.
type Builder struct {
	m *MFA
}

// NewBuilder returns an empty MFA builder.
func NewBuilder() *Builder {
	return &Builder{m: &MFA{Start: -1}}
}

// NewState adds a fresh unguarded non-final state and returns its index.
func (b *Builder) NewState() int {
	b.m.States = append(b.m.States, NFAState{Guard: -1, GuardStart: -1})
	return len(b.m.States) - 1
}

// AddEps adds an ε-transition.
func (b *Builder) AddEps(from, to int) {
	b.m.States[from].Eps = append(b.m.States[from].Eps, to)
}

// AddTrans adds a child transition on the given label.
func (b *Builder) AddTrans(from int, label string, to int) {
	b.m.States[from].Trans = append(b.m.States[from].Trans, Edge{Label: label, To: to})
}

// AddWildTrans adds a child transition matching any element label.
func (b *Builder) AddWildTrans(from, to int) {
	b.m.States[from].Trans = append(b.m.States[from].Trans, Edge{Wild: true, To: to})
}

// SetGuard annotates a state with an AFA (the λ mapping of §4). Each state
// carries at most one guard; guarding an already-guarded state is a bug in
// the caller and panics.
func (b *Builder) SetGuard(state, afa int) {
	if b.m.States[state].Guard >= 0 {
		panic(fmt.Sprintf("mfa: state %d already guarded", state))
	}
	b.m.States[state].Guard = afa
}

// SetGuardAt is SetGuard with an explicit AFA entry state; the rewriting
// algorithm uses it to share one product AFA among several guarded states.
func (b *Builder) SetGuardAt(state, afa, start int) {
	b.SetGuard(state, afa)
	b.m.States[state].GuardStart = start
}

// SetTag sets a state's batch-result tag (see Merge and hype.Result.Tagged).
func (b *Builder) SetTag(state, tag int) {
	b.m.States[state].Tag = tag
}

// AddAFA registers a frozen AFA and returns its index (the name X_i).
func (b *Builder) AddAFA(a *AFA) int {
	b.m.AFAs = append(b.m.AFAs, a)
	return len(b.m.AFAs) - 1
}

// ReserveAFA reserves an AFA slot to be filled later with SetReservedAFA;
// it lets callers hand out guard indices before the AFA is complete.
func (b *Builder) ReserveAFA() int {
	b.m.AFAs = append(b.m.AFAs, nil)
	return len(b.m.AFAs) - 1
}

// SetReservedAFA fills a slot reserved with ReserveAFA.
func (b *Builder) SetReservedAFA(idx int, a *AFA) { b.m.AFAs[idx] = a }

// CompilePath compiles an Xreg path into a fresh fragment.
func (b *Builder) CompilePath(q xpath.Path) (Frag, error) {
	switch t := q.(type) {
	case xpath.Empty:
		s, e := b.NewState(), b.NewState()
		b.AddEps(s, e)
		return Frag{s, e}, nil
	case *xpath.Label:
		s, e := b.NewState(), b.NewState()
		b.AddTrans(s, t.Name, e)
		return Frag{s, e}, nil
	case xpath.Wildcard:
		s, e := b.NewState(), b.NewState()
		b.AddWildTrans(s, e)
		return Frag{s, e}, nil
	case *xpath.Seq:
		l, err := b.CompilePath(t.Left)
		if err != nil {
			return Frag{}, err
		}
		r, err := b.CompilePath(t.Right)
		if err != nil {
			return Frag{}, err
		}
		b.AddEps(l.End, r.Start)
		return Frag{l.Start, r.End}, nil
	case *xpath.Union:
		l, err := b.CompilePath(t.Left)
		if err != nil {
			return Frag{}, err
		}
		r, err := b.CompilePath(t.Right)
		if err != nil {
			return Frag{}, err
		}
		s, e := b.NewState(), b.NewState()
		b.AddEps(s, l.Start)
		b.AddEps(s, r.Start)
		b.AddEps(l.End, e)
		b.AddEps(r.End, e)
		return Frag{s, e}, nil
	case *xpath.Star:
		sub, err := b.CompilePath(t.Sub)
		if err != nil {
			return Frag{}, err
		}
		// A single hub state is both entry and exit: ε to the body and ε
		// back, giving zero-or-more iterations.
		hub := b.NewState()
		b.AddEps(hub, sub.Start)
		b.AddEps(sub.End, hub)
		return Frag{hub, hub}, nil
	case *xpath.Filter:
		sub, err := b.CompilePath(t.Path)
		if err != nil {
			return Frag{}, err
		}
		afa, err := BuildAFA(t.Cond)
		if err != nil {
			return Frag{}, err
		}
		// A fresh guarded state after the sub-path keeps the "at most
		// one guard per state" invariant even for stacked filters.
		f := b.NewState()
		b.AddEps(sub.End, f)
		b.SetGuard(f, b.AddAFA(afa))
		return Frag{sub.Start, f}, nil
	default:
		return Frag{}, fmt.Errorf("mfa: unknown path node %T", q)
	}
}

// Finish marks the fragment's end state final, sets the start state, and
// returns the built MFA. The builder must not be reused afterwards.
func (b *Builder) Finish(f Frag) *MFA {
	b.m.Start = f.Start
	b.m.States[f.End].Final = true
	return b.m
}

// FinishMulti is Finish for automata with several final states (used by the
// rewriting algorithm, where each product copy contributes a final state).
func (b *Builder) FinishMulti(start int, finals []int) *MFA {
	b.m.Start = start
	for _, f := range finals {
		b.m.States[f].Final = true
	}
	return b.m
}

// BuildAFA compiles an Xreg filter into a single AFA (nested filters are
// flattened; Kleene stars become OR-cycles resolved by least fixpoint).
func BuildAFA(p xpath.Pred) (*AFA, error) {
	ab := NewAFABuilder()
	start, err := ab.CompilePred(p)
	if err != nil {
		return nil, err
	}
	return ab.Finish(start)
}

// AFABuilder incrementally constructs an AFA; exported for the rewriting
// algorithm, which splices view-definition fragments into filter automata.
type AFABuilder struct {
	a *AFA
}

// NewAFABuilder returns an empty AFA builder.
func NewAFABuilder() *AFABuilder {
	return &AFABuilder{a: &AFA{Start: -1}}
}

func (b *AFABuilder) add(s AFAState) int {
	b.a.States = append(b.a.States, s)
	return len(b.a.States) - 1
}

// NewOr adds an OR state over the given same-node children.
func (b *AFABuilder) NewOr(kids ...int) int {
	return b.add(AFAState{Kind: AFAOr, Kids: kids})
}

// NewAnd adds an AND state over the given same-node children.
func (b *AFABuilder) NewAnd(kids ...int) int {
	return b.add(AFAState{Kind: AFAAnd, Kids: kids})
}

// NewNot adds a NOT state over one same-node child.
func (b *AFABuilder) NewNot(kid int) int {
	return b.add(AFAState{Kind: AFANot, Kids: []int{kid}})
}

// NewTrans adds a transition state: step to a child labeled label, then
// require target.
func (b *AFABuilder) NewTrans(label string, target int) int {
	return b.add(AFAState{Kind: AFATrans, Label: label, Kids: []int{target}})
}

// NewWildTrans adds a transition state matching any element child.
func (b *AFABuilder) NewWildTrans(target int) int {
	return b.add(AFAState{Kind: AFATrans, Wild: true, Kids: []int{target}})
}

// NewFinal adds a final state with the given predicate.
func (b *AFABuilder) NewFinal(pred Pred) int {
	return b.add(AFAState{Kind: AFAFinal, Pred: pred})
}

// SetKids replaces the children of an operator state; used to tie the knot
// for Kleene-star cycles.
func (b *AFABuilder) SetKids(state int, kids ...int) {
	b.a.States[state].Kids = kids
}

// AddKid appends one child to an operator state.
func (b *AFABuilder) AddKid(state, kid int) {
	b.a.States[state].Kids = append(b.a.States[state].Kids, kid)
}

// NewPlaceholder adds an operator state whose children are filled in later
// with SetKids/AddKid; the product construction of the rewriting algorithm
// allocates states for (filter state, view type) pairs before wiring them.
func (b *AFABuilder) NewPlaceholder(kind AFAKind) int {
	return b.add(AFAState{Kind: kind})
}

// CompilePred compiles a filter and returns its entry state.
func (b *AFABuilder) CompilePred(p xpath.Pred) (int, error) {
	switch t := p.(type) {
	case *xpath.Exists:
		return b.CompilePathTo(t.Path, b.NewFinal(Pred{}))
	case *xpath.TextEq:
		return b.CompilePathTo(t.Path, b.NewFinal(Pred{Kind: PredText, Text: t.Value}))
	case *xpath.PosEq:
		return b.CompilePathTo(t.Path, b.NewFinal(Pred{Kind: PredPos, K: t.K}))
	case *xpath.Not:
		kid, err := b.CompilePred(t.Sub)
		if err != nil {
			return 0, err
		}
		return b.NewNot(kid), nil
	case *xpath.And:
		l, err := b.CompilePred(t.Left)
		if err != nil {
			return 0, err
		}
		r, err := b.CompilePred(t.Right)
		if err != nil {
			return 0, err
		}
		return b.NewAnd(l, r), nil
	case *xpath.Or:
		l, err := b.CompilePred(t.Left)
		if err != nil {
			return 0, err
		}
		r, err := b.CompilePred(t.Right)
		if err != nil {
			return 0, err
		}
		return b.NewOr(l, r), nil
	default:
		return 0, fmt.Errorf("mfa: unknown predicate node %T", p)
	}
}

// CompilePathTo compiles path q as a condition continuation: the returned
// state is true at node n iff some node m reachable from n via q makes
// state cont true at m. It is the AFA analogue of the NFA fragment
// construction, with nondeterminism turned into OR states.
func (b *AFABuilder) CompilePathTo(q xpath.Path, cont int) (int, error) {
	switch t := q.(type) {
	case xpath.Empty:
		return cont, nil
	case *xpath.Label:
		return b.NewTrans(t.Name, cont), nil
	case xpath.Wildcard:
		return b.NewWildTrans(cont), nil
	case *xpath.Seq:
		rest, err := b.CompilePathTo(t.Right, cont)
		if err != nil {
			return 0, err
		}
		return b.CompilePathTo(t.Left, rest)
	case *xpath.Union:
		l, err := b.CompilePathTo(t.Left, cont)
		if err != nil {
			return 0, err
		}
		r, err := b.CompilePathTo(t.Right, cont)
		if err != nil {
			return 0, err
		}
		return b.NewOr(l, r), nil
	case *xpath.Star:
		// x = cont ∨ ⟨Sub⟩x — an OR-cycle resolved by least fixpoint.
		x := b.NewOr()
		inner, err := b.CompilePathTo(t.Sub, x)
		if err != nil {
			return 0, err
		}
		b.SetKids(x, cont, inner)
		return x, nil
	case *xpath.Filter:
		guard, err := b.CompilePred(t.Cond)
		if err != nil {
			return 0, err
		}
		// ∃m ∈ path(n): cond(m) ∧ cont(m) — flattened into this AFA.
		return b.CompilePathTo(t.Path, b.NewAnd(guard, cont))
	default:
		return 0, fmt.Errorf("mfa: unknown path node %T", q)
	}
}

// Finish sets the start state, freezes and returns the AFA. The builder
// must not be reused afterwards.
func (b *AFABuilder) Finish(start int) (*AFA, error) {
	b.a.Start = start
	if err := b.a.Freeze(); err != nil {
		return nil, err
	}
	return b.a, nil
}
