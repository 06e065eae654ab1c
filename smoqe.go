// Package smoqe is a Go implementation of SMOQE, the Secure MOdular Query
// Engine of Fan, Geerts, Jia and Kementsietsidis, "Rewriting Regular XPath
// Queries on XML Views", ICDE 2007. It answers regular XPath (Xreg)
// queries posed on possibly recursively defined virtual XML views by
// rewriting them into mixed finite state automata (MFAs) over the source
// document and evaluating the automata in a single pass (HyPE), without
// ever materializing the view.
//
// The package is a thin facade over the implementation packages:
//
//	ParseQuery     – regular XPath (ε, labels, /, |, Q*, filters, //)
//	ParseDTD       – the normal-form DTDs of §2.2
//	ParseView      – views by DTD annotation (§2.3)
//	Compile        – Xreg query → MFA (§4)
//	Rewrite        – view query → source MFA (§5, algorithm rewrite)
//	PrepareMFA     – a reusable plan; its Eval is HyPE single-pass evaluation (§6)
//	BuildIndex     – the OptHyPE-C subtree index of a columnar document
//	Materialize    – σ(T), mainly for testing and comparison
//
// Quick start:
//
//	doc, _ := smoqe.ParseDocumentString(xmlText)
//	q, _ := smoqe.ParseQuery("(patient/parent)*/patient[record/diagnosis/text()='heart disease']")
//	nodes, _ := smoqe.Eval(q, doc.Root)
//
// Answering a query on a virtual view:
//
//	v, _ := smoqe.ParseView(viewSpec, docDTD, viewDTD)
//	answers, _ := smoqe.AnswerOnView(v, q, doc)   // = Q(σ(T)), computed on T
package smoqe

import (
	"context"
	"fmt"
	"io"

	"smoqe/internal/colstore"
	"smoqe/internal/dtd"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/refeval"
	"smoqe/internal/rewrite"
	"smoqe/internal/secview"
	"smoqe/internal/twopass"
	"smoqe/internal/view"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
	"smoqe/internal/xqsim"
)

// Core data model -------------------------------------------------------

// Document is an in-memory XML tree (elements and text nodes only).
type Document = xmltree.Document

// Node is one node of a Document.
type Node = xmltree.Node

// DocumentStats summarizes a document's shape.
type DocumentStats = xmltree.Stats

// ColumnarDocument is the columnar (struct-of-arrays) representation of a
// Document: flat preorder columns of interned label ids, subtree intervals
// and text offsets into one shared byte arena. It is immutable after
// construction, safe for concurrent readers, and the unit the snapshot
// format serializes.
type ColumnarDocument = colstore.Document

// SnapshotFileExt is the conventional file extension for binary document
// snapshots written by SaveSnapshot.
const SnapshotFileExt = colstore.FileExt

// DTD is a document type definition in the paper's normal form (§2.2).
type DTD = dtd.DTD

// Query is a parsed regular XPath (Xreg) path expression.
type Query = xpath.Path

// Pred is a parsed Xreg filter expression.
type Pred = xpath.Pred

// View is a view definition σ : D → D_V by DTD annotation (§2.3).
type View = view.View

// ViewEdge names one annotated edge (parent, child) of a view DTD.
type ViewEdge = view.Edge

// Materialization is σ(T) plus per-node provenance.
type Materialization = view.Materialization

// Policy maps element types to access-control rules; DeriveView turns it
// into a security view.
type Policy = secview.Policy

// PolicyRule is one access-control entry (allow / deny / conditional).
type PolicyRule = secview.Rule

// MFA is a mixed finite state automaton (§4), the compact representation
// of (rewritten) Xreg queries.
type MFA = mfa.MFA

// MFAStats is the size breakdown of an MFA (Theorem 5.1 accounting).
type MFAStats = mfa.Stats

// EngineStats reports pruning and cans statistics of an evaluation run.
type EngineStats = hype.Stats

// Index is the subtree-label index behind OptHyPE-C, built over one
// columnar document.
type Index = hype.Index

// Result is what one PreparedQuery.Eval produced: the answers as preorder
// ids (IDs, and per tag for batch automata in TaggedIDs), the run's
// EngineStats, the shard accounting of a parallel run, the compiled-layer
// statistics and the optional trace — plus, for a call at a tree node, the
// answers as that tree's nodes.
type Result struct {
	hype.Result
	// Nodes holds the answers in document order when Eval ran at a tree
	// node; nil for a columnar call.
	Nodes []*Node
	// Tagged holds the answers of every machine of a batch automaton (see
	// Merge), indexed by tag, when Eval ran at a tree node. A single query
	// has one tag, so Tagged[0] is Nodes.
	Tagged [][]*Node
}

// Trace is the capped per-node decision log of a traced HyPE run — the
// EXPLAIN mode of the engine (see EvalOptions.Trace).
type Trace = hype.Trace

// TraceEvent is one recorded decision of a traced run.
type TraceEvent = hype.TraceEvent

// CompiledStats reports what the compiled evaluation layer (lazy hybrid
// automaton + bitset AFAs) did during a run: cache sizing, hybrid states
// built, and hit/miss/flush counters. Reported per run in Result.Compiled
// and attached to traced runs (Trace.Compiled).
type CompiledStats = hype.CompiledStats

// EvalLimits bounds how much work one evaluation may do (visited elements,
// accumulated candidate answers); pass them per call in
// EvalOptions.Limits. The zero value is unlimited.
type EvalLimits = hype.Limits

// EvalLimitError reports an evaluation aborted over an exceeded EvalLimits
// budget.
type EvalLimitError = hype.LimitError

// ParseLimits bounds the documents ParseDocumentWithLimits will accept
// (nesting depth, node count, raw bytes). The zero value is unlimited.
type ParseLimits = xmltree.ParseLimits

// ParseLimitError reports an input document refused over an exceeded
// ParseLimits bound.
type ParseLimitError = xmltree.LimitError

// IDsOf returns the document-order IDs of the given nodes — the stable
// node references the serving layer returns to clients.
func IDsOf(ns []*Node) []int { return xmltree.IDsOf(ns) }

// Parsing ----------------------------------------------------------------

// ParseDocument reads an XML document from r.
func ParseDocument(r io.Reader) (*Document, error) { return xmltree.Parse(r) }

// ParseDocumentString parses an XML document from a string.
func ParseDocumentString(s string) (*Document, error) { return xmltree.ParseString(s) }

// ParseDocumentWithLimits is ParseDocument with input caps: parsing stops
// with a *ParseLimitError as soon as the document exceeds a bound, so a
// serving daemon can refuse oversized or hostile inputs deterministically.
func ParseDocumentWithLimits(r io.Reader, lim ParseLimits) (*Document, error) {
	return xmltree.ParseWithLimits(r, lim)
}

// ParseDocumentStringWithLimits is ParseDocumentWithLimits for a string.
func ParseDocumentStringWithLimits(s string, lim ParseLimits) (*Document, error) {
	return xmltree.ParseStringWithLimits(s, lim)
}

// Columnar documents and snapshots ---------------------------------------

// BuildColumnar converts a Document into its columnar representation. The
// result evaluates queries via EvalOptions.Columnar, indexes with
// BuildIndex and serializes with WriteSnapshot/SaveSnapshot. Preorder ids
// equal the Node IDs of a parsed document.
func BuildColumnar(d *Document) *ColumnarDocument { return colstore.FromTree(d) }

// WriteSnapshot writes the versioned binary snapshot of cd to w (format:
// docs/SNAPSHOT.md). Snapshots are deterministic — the same document always
// produces the same bytes — and carry a checksum verified on load.
func WriteSnapshot(cd *ColumnarDocument, w io.Writer) error { return cd.WriteSnapshot(w) }

// ReadSnapshot reads a snapshot written by WriteSnapshot, verifying the
// magic, format version, structural invariants and checksum.
func ReadSnapshot(r io.Reader) (*ColumnarDocument, error) { return colstore.ReadSnapshot(r) }

// SaveSnapshot writes cd's snapshot to a file (conventionally named with
// SnapshotFileExt).
func SaveSnapshot(cd *ColumnarDocument, path string) error { return cd.Save(path) }

// LoadSnapshot reads a snapshot file written by SaveSnapshot.
func LoadSnapshot(path string) (*ColumnarDocument, error) { return colstore.Load(path) }

// ParseDTD parses a DTD in the textual format documented in package dtd:
//
//	dtd hospital {
//	  root hospital;
//	  hospital -> department*;
//	  name -> #text;
//	  treatment -> test | medication;
//	}
func ParseDTD(src string) (*DTD, error) { return dtd.Parse(src) }

// ParseQuery parses a regular XPath query, e.g.
//
//	department/patient[(parent/patient)*/visit/treatment/medication/diagnosis/text()='heart disease']/pname
//
// '//' is desugared into (⋃Ele)* per §2.1, so the XPath fragment X embeds
// into Xreg.
func ParseQuery(src string) (Query, error) { return xpath.Parse(src) }

// ParsePred parses a standalone filter expression (the q of Q[q]).
func ParsePred(src string) (Pred, error) { return xpath.ParsePred(src) }

// ParseView parses a view specification that annotates every edge of the
// view DTD with a query over the source DTD:
//
//	view sigma0 {
//	  hospital/patient = department/patient[...];
//	  patient/record   = visit;
//	}
func ParseView(src string, source, target *DTD) (*View, error) {
	return view.Parse(src, source, target)
}

// ParsePolicy parses an access-control policy:
//
//	policy {
//	  deny department, name, doctor;
//	  cond patient = visit/treatment/medication/diagnosis/text()='heart disease';
//	}
func ParsePolicy(src string) (Policy, error) { return secview.ParsePolicy(src) }

// DeriveView derives a security view from an access-control policy over
// the document DTD (the [9]-style module that produces the views the
// rewriter consumes): denied types are walked through — their visible
// descendants are promoted — and conditional types are exposed only where
// their filter holds. Denied cycles surface as Kleene stars, which is why
// security views over recursive DTDs need regular XPath.
func DeriveView(d *DTD, p Policy) (*View, error) { return secview.Derive(d, p) }

// InFragmentX reports whether q lies in the classic XPath fragment X
// (Kleene star only in the form of '//'). X is not closed under rewriting
// over recursive views (Theorem 3.1); Xreg is (Theorem 3.2).
func InFragmentX(q Query) bool { return xpath.InFragmentX(q) }

// Compilation and rewriting ----------------------------------------------

// Compile translates an Xreg query into an equivalent MFA (Theorem 4.1).
func Compile(q Query) (*MFA, error) { return mfa.Compile(q) }

// Rewrite translates a query over the view into an equivalent MFA over the
// source (§5): for every source document T, evaluating the result on T
// returns the source nodes backing Q(σ(T)). The MFA has size
// O(|Q||σ||D_V|) — no exponential blow-up.
func Rewrite(v *View, q Query) (*MFA, error) { return rewrite.Rewrite(v, q) }

// RewriteMFA rewrites an automaton over v.Target into one over v.Source.
// It makes view stacks compose without ever extracting (exponentially
// large) intermediate queries: for σ1 : D → D_V1 and σ2 : D_V1 → D_V2,
//
//	m2, _ := smoqe.Rewrite(σ2, q)       // q over D_V2
//	m, _  := smoqe.RewriteMFA(σ1, m2)   // answers q on σ2(σ1(T)) over T
func RewriteMFA(v *View, m *MFA) (*MFA, error) { return rewrite.RewriteMFA(v, m) }

// Simplify returns an equivalent, usually smaller MFA (ε-chain collapse,
// dead-state elimination, AFA compaction). Rewrite applies it internally;
// it is exposed for automata built by other means.
func Simplify(m *MFA) *MFA { return mfa.Simplify(m) }

// ToXreg extracts an explicit Xreg query equivalent to the MFA (the
// converse of Theorem 4.1, by state elimination). The result can be
// exponentially larger than the automaton — Corollary 3.3's lower bound —
// so extraction takes an AST-size budget (0 for a permissive default) and
// returns an error wrapping mfa.ErrBudget beyond it. Use it for debugging
// and porting, never on the query-answering path.
func ToXreg(m *MFA, budget int) (Query, error) { return mfa.ToXreg(m, budget) }

// ReadMFA deserializes an automaton written with (*MFA).WriteBinary —
// servers cache rewritten automata on disk and load them in evaluator
// replicas without re-running the rewriter.
func ReadMFA(r io.Reader) (*MFA, error) { return mfa.ReadBinary(r) }

// IdentityView returns the identity view over a DTD: σ(T) = T. Rewriting
// over it specializes an automaton to the schema — impossible steps
// disappear, and a result without final states is a static proof that the
// query is empty on every document of the DTD.
func IdentityView(d *DTD) *View { return view.Identity(d) }

// Materialize computes σ(T) with provenance. Query answering through
// Rewrite does not need it; it exists for testing, comparison and export.
func Materialize(v *View, doc *Document) (*Materialization, error) {
	return view.Materialize(v, doc)
}

// Evaluation ---------------------------------------------------------------

// BuildIndex builds the OptHyPE-C subtree index of a columnar document;
// pass both in EvalOptions (Columnar and Index). Equal per-node label sets
// are stored once, so the index stays a few bytes per node.
func BuildIndex(cd *ColumnarDocument) *Index { return hype.BuildIndex(cd) }

// Eval compiles and evaluates q at ctx with HyPE. For repeated evaluation
// of the same query, Prepare once and reuse the PreparedQuery.
func Eval(q Query, ctx *Node) ([]*Node, error) {
	m, err := mfa.Compile(q)
	if err != nil {
		return nil, err
	}
	return evalOnce(m, ctx)
}

// evalOnce evaluates m at n with sequential HyPE.
func evalOnce(m *MFA, n *Node) ([]*Node, error) {
	res, err := PrepareMFA(m).Eval(context.Background(), n, EvalOptions{})
	return res.Nodes, err
}

// EvalString is Eval for a query in concrete syntax.
func EvalString(qsrc string, ctx *Node) ([]*Node, error) {
	q, err := xpath.Parse(qsrc)
	if err != nil {
		return nil, err
	}
	return Eval(q, ctx)
}

// EvalReference evaluates q with the reference set-semantics interpreter
// (the oracle used throughout the test suite).
func EvalReference(q Query, ctx *Node) []*Node { return refeval.Eval(q, ctx) }

// EvalXQueryTranslation evaluates q the way a naive translation to XQuery
// run on a general-purpose engine would: node-at-a-time, materializing and
// re-sorting intermediate sequences, restarting Kleene fixpoints over the
// whole set. It is the paper's Galax baseline stand-in (§7).
func EvalXQueryTranslation(q Query, ctx *Node) []*Node { return xqsim.Eval(q, ctx) }

// EvalTwoPass evaluates q with the classic two-pass strategy (the paper's
// JAXP-class baseline): a full bottom-up filter pass over the tree, then a
// top-down selection pass. Supports all of Xreg.
func EvalTwoPass(q Query, ctx *Node) ([]*Node, error) {
	e, err := twopass.New(q)
	if err != nil {
		return nil, err
	}
	return e.Eval(ctx), nil
}

// Merge combines several MFAs into one batch automaton whose final states
// remember which machine they came from; a single HyPE pass then answers
// all queries at once (Result.Tagged). This is the many-user-groups
// access-control scenario: rewrite each group's query over its view, merge,
// and scan the source once.
func Merge(ms []*MFA) (*MFA, error) { return mfa.Merge(ms) }

// AnswerOnView answers q as if posed on the virtual view v of doc: it
// rewrites q into a source MFA and evaluates it with HyPE on doc. The
// result is the set of source nodes backing Q(σ(doc)); the view itself is
// never materialized.
func AnswerOnView(v *View, q Query, doc *Document) ([]*Node, error) {
	if doc == nil || doc.Root == nil {
		return nil, fmt.Errorf("smoqe: empty document")
	}
	m, err := rewrite.Rewrite(v, q)
	if err != nil {
		return nil, err
	}
	return evalOnce(m, doc.Root)
}
