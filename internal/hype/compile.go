package hype

// Compiled evaluation: the automaton side of the single-pass HyPE
// algorithm, compiled ahead of a run. Two pieces are compiled, both bounded
// by the Theorem 5.1 size accounting surfaced through CompiledStats:
//
//   - Every AFA becomes an instruction program over uint64 bitset words
//     (afaProg): per-state same-node closure masks replace the worklist
//     closure, and the per-node truth computation walks the frozen SCC order
//     as straight-line instructions whose AND/OR tests are word operations.
//
//   - The filter side is determinized lazily with the NFA side (hcache), in
//     the manner of XPush (Gupta & Suciu) and the lazy XPath DFAs of Green
//     et al. A hybrid state is an ε-closed NFA subset plus the closed AFA
//     seed sets active beside it (the paper's mstates and fstates↓).
//     Transitions are built on demand per label, the way production regexp
//     engines do; each cached one carries the child's hybrid state, the
//     cans link edges from the parent's vertex block into the child's and
//     the rules folding the child's AFA values back. AFA value sets are
//     interned, so folding a child into its parent's accumulator and the
//     bottom-up evaluation at a node are memo lookups keyed by interned
//     pointers and the node's predicate outcomes; only text()='c' and
//     position()=k are still tested per element. States, values and memo
//     entries share one bound: on overflow the cache is flushed wholesale,
//     so memory stays proportional to the cap plus the DFS depth.
//
// Labels are interned into a dense alphabet with a single shared "other"
// class for labels the automaton never mentions: all such labels behave
// identically (only wildcard edges and seeds can fire on them), so they
// share one cached transition per hybrid state. Each evaluation translates
// the document's label ids to program label ids once (program.bind).
//
// The compiled pass makes exactly the decisions of the §6 algorithm run
// state by state — same visits, same prunes, same vertices, same edge
// multiset, same AFA activations. testdata/golden.jsonl pins its answers,
// Stats and traces to those of the interpreted evaluator it replaced.

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"smoqe/internal/mfa"
)

// defaultCacheCap bounds the hybrid states, interned AFA values and memo
// entries one engine clone caches; at a few hundred bytes an entry plus
// per-label transition slots this keeps the cache in the hundreds of
// kilobytes for realistic alphabets.
const defaultCacheCap = 2048

// progEdge is one NFA transition with its label interned; lab -1 is a
// wildcard (matches every element label).
type progEdge struct {
	to  int32
	lab int32
}

// program is the compiled form of the automaton: everything a run reads
// that depends on the automaton alone. It is immutable once built and
// shared by an engine and all its clones; the mutable hybrid-state cache
// lives per clone (hcache).
type program struct {
	m         *mfa.MFA
	labels    map[string]int32 // interned transition alphabet
	numLabels int
	nfaWords  int
	nfaEdges  [][]progEdge
	epsAdj    [][]int32 // ε-successors per NFA state
	// productive marks the NFA states from which a final state is
	// reachable; indexed runs drop the others (see hcache.prodFilter).
	productive []bool
	// guarded reports whether some NFA state carries a guard. Only a failed
	// guard kills a cans vertex, so without one every candidate survives
	// phase 2 and runs count the DAG instead of storing it (see liveCands).
	guarded bool
	// numTags is the number of result tags (see mfa.Merge): 1 for a single
	// query, one per merged machine for a batch automaton.
	numTags int
	afas    []afaProg
	// AFA sets of all AFAs live in one flat bitset of afaWords words, AFA
	// g's from word afaOff[g] (see afaSeg).
	afaOff   []int
	afaWords int
}

// bitWords is the number of uint64 words of a bitset over n members; a
// bitset has at least one word.
func bitWords(n int) int { return max(1, (n+63)/64) }

// internLabels assigns dense ids to every label the automaton's transitions
// (NFA edges and AFA TRANS steps) can consume, in a deterministic order:
// NFA states ascending, transitions in declaration order, then AFAs and
// their states ascending.
func internLabels(m *mfa.MFA) map[string]int32 {
	labels := make(map[string]int32)
	add := func(lab string) {
		if _, ok := labels[lab]; !ok {
			labels[lab] = int32(len(labels))
		}
	}
	for s := range m.States {
		for _, tr := range m.States[s].Trans {
			if !tr.Wild {
				add(tr.Label)
			}
		}
	}
	for _, a := range m.AFAs {
		for t := range a.States {
			if st := &a.States[t]; st.Kind == mfa.AFATrans && !st.Wild {
				add(st.Label)
			}
		}
	}
	return labels
}

// buildProgram compiles m.
func buildProgram(m *mfa.MFA) *program {
	n := m.NumStates()
	p := &program{
		m:          m,
		labels:     internLabels(m),
		nfaWords:   bitWords(n),
		nfaEdges:   make([][]progEdge, n),
		epsAdj:     make([][]int32, n),
		productive: make([]bool, n),
		numTags:    m.NumTags(),
		afas:       make([]afaProg, len(m.AFAs)),
		afaOff:     make([]int, len(m.AFAs)),
	}
	p.numLabels = len(p.labels)
	for s := range m.States {
		st := &m.States[s]
		edges := make([]progEdge, len(st.Trans))
		for i, tr := range st.Trans {
			edges[i] = progEdge{to: int32(tr.To), lab: -1}
			if !tr.Wild {
				edges[i].lab = p.labels[tr.Label]
			}
		}
		p.nfaEdges[s] = edges
		eps := make([]int32, len(st.Eps))
		for i, t := range st.Eps {
			eps[i] = int32(t)
		}
		p.epsAdj[s] = eps
		p.productive[s] = st.Final
		p.guarded = p.guarded || st.Guard >= 0
	}
	// productive: any final reachable through ε and label edges. Guarded
	// states need their AFA evaluated even if unproductive paths hang off
	// them — but an unproductive state can never contribute an answer, so
	// filtering it (and its guard work) is sound.
	fixpointReach(n, p.productive, func(s int, mark func(int)) {
		for _, t := range m.States[s].Eps {
			mark(t)
		}
		for _, tr := range m.States[s].Trans {
			mark(tr.To)
		}
	})
	for g, a := range m.AFAs {
		p.afas[g] = buildAFAProg(a, p.labels, p.numLabels)
		p.afaOff[g] = p.afaWords
		p.afaWords += p.afas[g].words
	}
	return p
}

// labelOf interns a document label at evaluation time; -1 is the shared
// "other" class.
func (p *program) labelOf(label string) int32 {
	if lid, ok := p.labels[label]; ok {
		return lid
	}
	return -1
}

// AFA compilation -----------------------------------------------------------

const (
	opFinalTrue = uint8(iota) // FINAL without predicate: constant true
	opFinalPred               // FINAL with predicate: read its outcome
	opTrans                   // TRANS: read the bottom-up accumulator
	opNot                     // NOT: negate the kid bit
	opAnd                     // AND: vals ⊇ mask
	opOr                      // OR: vals ∩ mask ≠ ∅
)

// afaInstr evaluates one AFA state; s is the state, mask the kid bitset of
// operator states, kid the single child of NOT.
type afaInstr struct {
	op   uint8
	s    int32
	kid  int32
	mask nfaSet
}

// afaBlock groups consecutive instructions that evaluate in one pass;
// cyclic blocks (star components) iterate to their monotone fixpoint.
type afaBlock struct {
	cyclic bool
	instrs []afaInstr
}

// afaSeed records a TRANS state with its descend target, pre-bucketed by
// label so child-seed computation walks a short list instead of the whole
// relevance set.
type afaSeed struct {
	t, target int32
}

// afaProg is one AFA compiled to bitset instructions, together with the
// same-node facts the pass and the index binding read.
type afaProg struct {
	words int
	// closure[t] is the transitive same-node closure of {t} (including t),
	// precomputed so relevance sets close by OR-ing masks.
	closure []nfaSet
	// local marks the FINAL and NOT states: their truth at a node can be
	// decided without a child step (NOT can be true because its kid is
	// false). A state whose closure meets local may be true at a leaf.
	local  nfaSet
	blocks []afaBlock
	// seeds[lid+1] lists the TRANS states that can fire on program label
	// lid; seeds[0] is the "other" class and holds exactly the wildcard
	// TRANS states, which also appear in every labeled bucket.
	seeds [][]afaSeed
}

func buildAFAProg(a *mfa.AFA, labels map[string]int32, numLabels int) afaProg {
	n := a.NumStates()
	p := afaProg{words: bitWords(n), closure: make([]nfaSet, n)}
	p.local = make(nfaSet, p.words)
	var stack []int
	for t := 0; t < n; t++ {
		if k := a.States[t].Kind; k == mfa.AFAFinal || k == mfa.AFANot {
			p.local.set(t)
		}
		// Same-node edges are the Kids of the operator states NOT, AND
		// and OR; a TRANS kid lies at a child node.
		mask := make(nfaSet, p.words)
		mask.set(t)
		stack = append(stack[:0], t)
		for len(stack) > 0 {
			st := &a.States[stack[len(stack)-1]]
			stack = stack[:len(stack)-1]
			if st.Kind == mfa.AFATrans || st.Kind == mfa.AFAFinal {
				continue
			}
			for _, k := range st.Kids {
				if !mask.has(k) {
					mask.set(k)
					stack = append(stack, k)
				}
			}
		}
		p.closure[t] = mask
	}

	comps, cyclic := a.SCCOrder()
	for ci, comp := range comps {
		instrs := make([]afaInstr, 0, len(comp))
		for _, s := range comp {
			instrs = append(instrs, buildAFAInstr(a, s, p.words))
		}
		// Consecutive acyclic components fuse into one straight-line block
		// (they are already in dependency order).
		if cyclic[ci] || len(p.blocks) == 0 || p.blocks[len(p.blocks)-1].cyclic {
			p.blocks = append(p.blocks, afaBlock{cyclic: cyclic[ci], instrs: instrs})
		} else {
			last := &p.blocks[len(p.blocks)-1]
			last.instrs = append(last.instrs, instrs...)
		}
	}

	p.seeds = make([][]afaSeed, numLabels+1)
	for t := 0; t < n; t++ {
		st := &a.States[t]
		if st.Kind != mfa.AFATrans {
			continue
		}
		sd := afaSeed{t: int32(t), target: int32(st.Kids[0])}
		if st.Wild {
			for i := range p.seeds {
				p.seeds[i] = append(p.seeds[i], sd)
			}
		} else {
			p.seeds[labels[st.Label]+1] = append(p.seeds[labels[st.Label]+1], sd)
		}
	}
	return p
}

func buildAFAInstr(a *mfa.AFA, s int, words int) afaInstr {
	st := &a.States[s]
	ins := afaInstr{s: int32(s)}
	switch st.Kind {
	case mfa.AFAFinal:
		ins.op = opFinalPred
		if st.Pred.Kind == mfa.PredNone {
			ins.op = opFinalTrue
		}
	case mfa.AFATrans:
		ins.op = opTrans
	case mfa.AFANot:
		ins.op = opNot
		ins.kid = int32(st.Kids[0])
	case mfa.AFAAnd, mfa.AFAOr:
		if st.Kind == mfa.AFAAnd {
			ins.op = opAnd
		} else {
			ins.op = opOr
		}
		mask := make(nfaSet, words)
		for _, k := range st.Kids {
			mask.set(k)
		}
		ins.mask = mask
	}
	return ins
}

// eval computes one instruction against the partially filled truth bitset;
// predTrue holds the predicate outcomes at the node.
func (ins *afaInstr) eval(transVals, predTrue, vals nfaSet) bool {
	switch ins.op {
	case opFinalTrue:
		return true
	case opFinalPred:
		return predTrue.has(int(ins.s))
	case opTrans:
		return transVals.has(int(ins.s))
	case opNot:
		return !vals.has(int(ins.kid))
	case opAnd:
		for j, w := range ins.mask {
			if vals[j]&w != w {
				return false
			}
		}
		return true
	default: // opOr
		for j, w := range ins.mask {
			if vals[j]&w != 0 {
				return true
			}
		}
		return false
	}
}

// close expands set over same-node edges by OR-ing the precomputed closure
// masks. Bits a mask adds to an already-scanned word need no rescan: masks
// are transitively closed, so their own closures are subsets of the mask.
func (p *afaProg) close(set nfaSet) {
	for wi := range set {
		w := set[wi]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			mask := p.closure[wi<<6+b]
			for j := range set {
				set[j] |= mask[j]
			}
		}
	}
}

// evalMasked is the compiled mfa.AFA.EvalAtMasked: the truth values of the
// member states at a node, computed block by block into the zeroed bitset
// vals from the bottom-up TRANS values transVals and the outcomes predTrue
// of the node's predicate states. Non-member states stay false, as in
// EvalAtMasked.
func (p *afaProg) evalMasked(transVals, member, predTrue, vals nfaSet) {
	for bi := range p.blocks {
		b := &p.blocks[bi]
		if !b.cyclic {
			for ii := range b.instrs {
				ins := &b.instrs[ii]
				if member.has(int(ins.s)) && ins.eval(transVals, predTrue, vals) {
					vals.set(int(ins.s))
				}
			}
			continue
		}
		// Monotone fixpoint over the star component, as in EvalAtMasked.
		for changed := true; changed; {
			changed = false
			for ii := range b.instrs {
				ins := &b.instrs[ii]
				if !vals.has(int(ins.s)) && member.has(int(ins.s)) && ins.eval(transVals, predTrue, vals) {
					vals.set(int(ins.s))
					changed = true
				}
			}
		}
	}
}

// Lazy hybrid automaton ------------------------------------------------------

// localEdge is a cans edge between a parent hybrid state's vertex block and
// a child's, by position within each block.
type localEdge struct {
	from, to int32
}

// finalVertex marks states[idx] as final with its result tag.
type finalVertex struct {
	idx, tag int32
}

// hpred is a FINAL state with a text()='c' or position()=k predicate among
// a hybrid state's closed AFA sets, at bit of the flat AFA layout.
type hpred struct {
	pred *mfa.Pred
	bit  int32
}

// hstate is one interned hybrid state: an ε-closed subset of NFA states
// (the paper's mstates) with the closed AFA seed sets active beside it
// (fstates↓), so a visit derives nothing from them at run time. It holds
// the sorted NFA state list (the cans vertex block), intra-node ε edges,
// final states, the active AFAs and their predicate states.
type hstate struct {
	nfa      nfaSet // ε-closed NFA states
	rel      nfaSet // closed AFA seed sets, AFA g at word program.afaOff[g]
	states   []int32
	epsLocal []localEdge
	finals   []finalVertex
	active   []int32 // AFAs with a nonempty closed set, ascending
	preds    []hpred
	// walks: the pass visits the children only when an NFA state has a
	// transition or an AFA is active.
	walks bool
	// next[lid+1] caches the transition on program label lid (next[0] is
	// the "other" class) and evals the bottom-up evaluations; next is nil
	// once a flush evicted the state, and the state then caches nothing.
	next  []*htrans
	evals map[evalKey]*evalOut
	// last is the most recent evaluation, checked before the map.
	lastKey evalKey
	last    *evalOut
}

// htrans is one cached hybrid transition: the child's hybrid state (nil
// when no NFA transition and no AFA step fires on the label — the
// "no-transition" prune), the cans link edges, one per (parent vertex, NFA
// transition) whose target has a vertex in the child block — unfiltered by
// productivity, since a filtered target can re-enter the child block
// through ε-closure — and the rules folding the child's AFA values into
// the parent's accumulator, with their memo (nil once flushed).
type htrans struct {
	next      *hstate
	linkEdges []localEdge
	rules     []foldRule
	fold      map[foldKey]*afaVal
}

// foldRule: bit child of the child's AFA values sets bit acc of the
// parent's accumulator (a descend target and its TRANS state, lines 19–21
// of HyPE).
type foldRule struct{ child, acc int32 }

// afaVal is an interned set of AFA truth values (or accumulated TRANS
// values), in the flat layout of hstate.rel; nil is the all-false set.
type afaVal struct{ bits nfaSet }

func (v *afaVal) has(i int) bool { return v != nil && v.bits.has(i) }

// evalKey is what the bottom-up evaluation at a node reads besides its
// hybrid state: the accumulator and the outcomes of the state's predicates.
type evalKey struct {
	acc   *afaVal
	preds uint64
}

// evalOut is one memoized evaluation: the node's AFA values and the
// positions in its vertex block whose guard came out false.
type evalOut struct {
	vals  *afaVal
	kills []int32
}

type foldKey struct{ acc, child *afaVal }

// hcache is one clone's lazy hybrid automaton and its memo tables.
// Evaluation is single-goroutine per clone (Clone starts empty), so there
// is no locking. States, values and memo entries share one bound: an
// insertion into a full cache flushes it wholesale. States and transitions
// the DFS still holds stay usable; they stop caching and are re-interned
// fresh on the next lookup.
type hcache struct {
	prog *program
	// prodFilter drops unproductive NFA states from transition targets:
	// the productive-state filter of indexed runs. It applies to targets
	// only, never to link edges. It is why OptHyPE's cans statistics
	// differ from HyPE's, so each mode keeps its own cache.
	prodFilter bool
	states     map[string]*hstate
	vals       map[string]*afaVal
	root       *hstate
	cap, size  int
	// keyBuf and tmp are scratch for keys and for the sets a miss builds
	// before interning copies them.
	keyBuf []byte
	tmp    nfaSet
	cacheCounters
}

// cacheCounters are a cache's running totals; a run reports the difference
// from a copy taken at its start (see delta).
type cacheCounters struct {
	built, flushes int
	hits, misses   int64
}

// room makes space for one insertion, flushing a full cache.
func (d *hcache) room() {
	if d.size < d.cap {
		return
	}
	for _, h := range d.states {
		for _, t := range h.next {
			if t != nil {
				t.fold = nil
			}
		}
		h.next, h.evals = nil, nil
	}
	clear(d.states)
	clear(d.vals)
	d.root, d.size = nil, 0
	d.flushes++
}

// scratch returns n cleared words of the miss-path scratch.
func (d *hcache) scratch(n int) nfaSet {
	d.tmp = slices.Grow(d.tmp[:0], n)[:n]
	clear(d.tmp)
	return d.tmp
}

func (d *hcache) key(a, b nfaSet) []byte {
	d.keyBuf = d.keyBuf[:0]
	for _, w := range a {
		d.keyBuf = binary.LittleEndian.AppendUint64(d.keyBuf, w)
	}
	for _, w := range b {
		d.keyBuf = binary.LittleEndian.AppendUint64(d.keyBuf, w)
	}
	return d.keyBuf
}

// intern returns the hybrid state of the ε-closed NFA set and the closed
// AFA sets rel, building it on a miss. Both sets are copied on insertion.
func (d *hcache) intern(nfa, rel nfaSet) *hstate {
	if h, ok := d.states[string(d.key(nfa, rel))]; ok {
		return h
	}
	d.room()
	h := d.newState(slices.Clone(nfa), slices.Clone(rel))
	h.next = make([]*htrans, d.prog.numLabels+1)
	d.states[string(d.key(nfa, rel))] = h
	d.size++
	d.built++
	return h
}

// internVal returns the interned value of bits (nil when all false).
func (d *hcache) internVal(bits nfaSet) *afaVal {
	if bits.count() == 0 {
		return nil
	}
	if v, ok := d.vals[string(d.key(bits, nil))]; ok {
		return v
	}
	d.room()
	v := &afaVal{bits: slices.Clone(bits)}
	d.vals[string(d.key(bits, nil))] = v
	d.size++
	return v
}

// newState derives the visit-time metadata of a hybrid state.
func (d *hcache) newState(nfa, rel nfaSet) *hstate {
	p := d.prog
	h := &hstate{nfa: nfa, rel: rel}
	nfa.forEach(func(s int) {
		ns := &p.m.States[s]
		if ns.Final {
			h.finals = append(h.finals, finalVertex{idx: int32(len(h.states)), tag: int32(ns.Tag)})
		}
		h.walks = h.walks || len(ns.Trans) > 0
		h.states = append(h.states, int32(s))
	})
	for i, s := range h.states {
		for _, t := range p.epsAdj[s] {
			if j, ok := findState(h.states, t); ok {
				h.epsLocal = append(h.epsLocal, localEdge{from: int32(i), to: int32(j)})
			}
		}
	}
	for g, a := range p.m.AFAs {
		seg := p.afaSeg(rel, g)
		if seg.count() == 0 {
			continue
		}
		h.active = append(h.active, int32(g))
		h.walks = true
		seg.forEach(func(s int) {
			if st := &a.States[s]; st.Kind == mfa.AFAFinal && st.Pred.Kind != mfa.PredNone {
				h.preds = append(h.preds, hpred{pred: &st.Pred, bit: int32(p.afaOff[g]<<6 + s)})
			}
		})
	}
	return h
}

// rootState returns the hybrid state of the context node: {start}
// ε-closed, with the closed entries of its guards.
func (d *hcache) rootState() *hstate {
	if d.root == nil {
		p := d.prog
		buf := d.scratch(p.nfaWords + p.afaWords)
		nfa, rel := buf[:p.nfaWords], buf[p.nfaWords:]
		nfa.set(p.m.Start)
		closeNFAInto(nfa, p.epsAdj)
		p.seedGuards(nfa, rel)
		p.closeAFAs(rel)
		d.root = d.intern(nfa, rel)
	}
	return d.root
}

// step returns the hybrid transition of h on program label lid (-1 for
// the "other" class), building and caching it on demand.
func (d *hcache) step(h *hstate, lid int32) *htrans {
	if h.next != nil {
		if t := h.next[lid+1]; t != nil {
			d.hits++
			return t
		}
	}
	d.misses++
	t := d.buildTrans(h, lid)
	// Re-check: buildTrans may have flushed the cache (nilling h.next).
	if h.next != nil {
		h.next[lid+1] = t
		if len(t.rules) > 0 {
			t.fold = make(map[foldKey]*afaVal)
		}
	}
	return t
}

// buildTrans computes the child's hybrid state: the NFA targets on lid,
// ε-closed, and as AFA seeds the descend targets of h's TRANS states that
// fire on lid plus the guard entries of the child's NFA states, closed.
func (d *hcache) buildTrans(h *hstate, lid int32) *htrans {
	p := d.prog
	t := &htrans{}
	buf := d.scratch(p.nfaWords + p.afaWords)
	nfa, rel := buf[:p.nfaWords], buf[p.nfaWords:]
	for _, s := range h.states {
		for _, e := range p.nfaEdges[s] {
			if (e.lab == -1 || e.lab == lid) && (!d.prodFilter || p.productive[e.to]) {
				nfa.set(int(e.to))
			}
		}
	}
	closeNFAInto(nfa, p.epsAdj)
	for _, g := range h.active {
		off := int32(p.afaOff[g] << 6)
		for _, sd := range p.afas[g].seeds[lid+1] {
			if h.rel.has(int(off + sd.t)) {
				rel.set(int(off + sd.target))
				t.rules = append(t.rules, foldRule{child: off + sd.target, acc: off + sd.t})
			}
		}
	}
	p.seedGuards(nfa, rel)
	if nfa.count() == 0 && rel.count() == 0 {
		return t
	}
	p.closeAFAs(rel)
	t.next = d.intern(nfa, rel)
	for i, s := range h.states {
		for _, e := range p.nfaEdges[s] {
			if e.lab != -1 && e.lab != lid {
				continue
			}
			if j, ok := findState(t.next.states, e.to); ok {
				t.linkEdges = append(t.linkEdges, localEdge{from: int32(i), to: int32(j)})
			}
		}
	}
	return t
}

// fold ORs a child's AFA values into the parent's accumulator acc through
// the rules of t (the fstates↑ propagation), memoized per (acc, child).
func (d *hcache) fold(t *htrans, acc, child *afaVal) *afaVal {
	k := foldKey{acc, child}
	if v, ok := t.fold[k]; ok {
		return v
	}
	bits := d.scratch(d.prog.afaWords)
	if acc != nil {
		copy(bits, acc.bits)
	}
	for _, r := range t.rules {
		if child.has(int(r.child)) {
			bits.set(int(r.acc))
		}
	}
	v := d.internVal(bits)
	if t.fold != nil {
		d.room()
		if t.fold != nil {
			t.fold[k] = v
			d.size++
		}
	}
	return v
}

// eval is the bottom-up evaluation of h's active AFAs at a node whose
// accumulator is acc and whose predicate states came out as preds (bit i
// for h.preds[i]), with the guard kills it implies. It is memoized while
// the outcomes fit one word.
func (d *hcache) eval(h *hstate, acc *afaVal, preds nfaSet) *evalOut {
	memo := h.next != nil && len(preds) <= 1
	k := evalKey{acc: acc}
	if len(preds) == 1 {
		k.preds = preds[0]
	}
	if memo && h.last != nil && h.lastKey == k {
		return h.last
	}
	if out, ok := h.evals[k]; ok && memo {
		h.lastKey, h.last = k, out
		return out
	}
	p := d.prog
	w := p.afaWords
	buf := d.scratch(3 * w)
	predTrue, trans, vals := buf[:w], buf[w:2*w], buf[2*w:]
	for i, hp := range h.preds {
		if preds.has(i) {
			predTrue.set(int(hp.bit))
		}
	}
	if acc != nil {
		copy(trans, acc.bits)
	}
	for _, g := range h.active {
		g := int(g)
		p.afas[g].evalMasked(p.afaSeg(trans, g), p.afaSeg(h.rel, g), p.afaSeg(predTrue, g), p.afaSeg(vals, g))
	}
	out := &evalOut{vals: d.internVal(vals)}
	for i, s := range h.states {
		if g := p.m.States[s].Guard; g >= 0 && !out.vals.has(p.afaOff[g]<<6+p.m.GuardEntry(int(s))) {
			out.kills = append(out.kills, int32(i))
		}
	}
	if memo {
		d.room()
		if h.next != nil {
			if h.evals == nil {
				h.evals = make(map[evalKey]*evalOut)
			}
			h.evals[k] = out
			d.size++
		}
	}
	return out
}

// seedGuards sets in rel the entry of every guard of an NFA state in nfa.
func (p *program) seedGuards(nfa, rel nfaSet) {
	nfa.forEach(func(s int) {
		if g := p.m.States[s].Guard; g >= 0 {
			rel.set(p.afaOff[g]<<6 + p.m.GuardEntry(s))
		}
	})
}

// closeAFAs closes every AFA's seed set in rel over same-node edges.
func (p *program) closeAFAs(rel nfaSet) {
	for g := range p.afas {
		p.afas[g].close(p.afaSeg(rel, g))
	}
}

// afaSeg is AFA g's words of a set in the flat AFA layout.
func (p *program) afaSeg(set nfaSet, g int) nfaSet {
	return set[p.afaOff[g] : p.afaOff[g]+p.afas[g].words]
}

// closeNFAInto expands set to its ε-closure in place.
func closeNFAInto(set nfaSet, epsAdj [][]int32) {
	var stack []int32
	set.forEach(func(s int) { stack = append(stack, int32(s)) })
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range epsAdj[s] {
			if !set.has(int(t)) {
				set.set(int(t))
				stack = append(stack, t)
			}
		}
	}
}

// delta reports one run's compiled-layer statistics relative to the
// counters pre taken at its start.
func (d *hcache) delta(pre cacheCounters) CompiledStats {
	p := d.prog
	return CompiledStats{
		Enabled:     true,
		Alphabet:    p.numLabels,
		NFAWords:    p.nfaWords,
		AFAWords:    p.afaWords,
		DFACacheCap: d.cap,
		DFAStates:   d.built - pre.built,
		DFAHits:     d.hits - pre.hits,
		DFAMisses:   d.misses - pre.misses,
		DFAFlushes:  d.flushes - pre.flushes,
	}
}

// CompiledStats reports what the compiled evaluation layer did (and costs):
// the static sizing ties back to Theorem 5.1 — the hybrid automaton over an
// MFA of size |M| has exponentially many states in the NFA and AFA state
// counts, which is why the cache is bounded by DFACacheCap and flushes
// instead of growing — and the per-run counters show how much of it a
// concrete document actually materialized.
// It is deliberately separate from Stats: Stats describes the algorithm's
// decisions, CompiledStats describes the machinery.
type CompiledStats struct {
	// Enabled reports whether the statistics were filled in: true for a
	// sequential run, false for a shard-parallel one.
	Enabled bool `json:"enabled"`
	// Alphabet is the number of distinct labels the automaton can consume;
	// all other labels share one implicit "other" transition class.
	Alphabet int `json:"alphabet"`
	// NFAWords and AFAWords are the uint64 bitset words encoding the
	// selecting NFA's state set and (summed) the AFAs' state sets.
	NFAWords int `json:"nfa_words"`
	AFAWords int `json:"afa_words,omitempty"`
	// DFACacheCap bounds how many hybrid states, interned AFA values and
	// memo entries one engine clone caches before flushing.
	DFACacheCap int `json:"dfa_cache_cap"`
	// DFAStates counts hybrid states (an NFA subset with its closed AFA
	// seed sets) built during this run; DFAHits and DFAMisses count
	// cached-transition lookups.
	DFAStates int   `json:"dfa_states"`
	DFAHits   int64 `json:"dfa_hits"`
	DFAMisses int64 `json:"dfa_misses"`
	// DFAFlushes counts whole-cache flushes.
	DFAFlushes int `json:"dfa_flushes,omitempty"`
}

// CompiledPlan reports the static compiled-layer sizing for an automaton —
// the part of CompiledStats known before any document is seen. The EXPLAIN
// layer prints it next to the Theorem 5.1 automaton sizes.
func CompiledPlan(m *mfa.MFA) CompiledStats {
	afaWords := 0
	for _, a := range m.AFAs {
		afaWords += bitWords(a.NumStates())
	}
	return CompiledStats{
		Enabled:     true,
		Alphabet:    len(internLabels(m)),
		NFAWords:    bitWords(m.NumStates()),
		AFAWords:    afaWords,
		DFACacheCap: defaultCacheCap,
	}
}

// Engine knobs --------------------------------------------------------------

// SetCompiledCacheCap overrides the hybrid-state cache bound (0 restores
// the default). It resets the clone's caches; tests use tiny caps to
// exercise the flush path.
func (e *Engine) SetCompiledCacheCap(n int) {
	e.cacheCap = n
	e.caches = [2]*hcache{}
}

// ensureCache returns the clone's lazy hybrid automaton for plain or
// indexed runs, creating it on first use so clones pay only for the modes
// they run.
func (e *Engine) ensureCache(indexed bool) *hcache {
	i := 0
	if indexed {
		i = 1
	}
	if e.caches[i] == nil {
		c := &hcache{prog: e.program, prodFilter: indexed, cap: e.cacheCap}
		if c.cap <= 0 {
			c.cap = defaultCacheCap
		}
		c.states, c.vals = make(map[string]*hstate), make(map[string]*afaVal)
		e.caches[i] = c
	}
	return e.caches[i]
}
