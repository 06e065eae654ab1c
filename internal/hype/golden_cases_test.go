package hype_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/rewrite"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
)

// The golden pin (testdata/golden.jsonl) holds the answers, Stats and
// trace events that the interpreted pointer pass produced for the cases
// below. This file only enumerates the cases; golden_test.go checks the
// evaluator against the file.

// goldenFile is the pin's path, relative to the package directory.
const goldenFile = "testdata/golden.jsonl"

// goldenDoc is one named document of the pin.
type goldenDoc struct {
	name string
	doc  *xmltree.Document
}

// goldenDocs returns the pinned documents: the hand-written sample, a
// 150-patient datagen document and the 3,000-patient document behind
// `benchfig -pruning` (unit 1,000, step 3).
func goldenDocs() []goldenDoc {
	return []goldenDoc{
		{"sample", hospital.SampleDocument()},
		{"datagen-150", datagen.Generate(datagen.DefaultConfig(150))},
		{"datagen-3000", datagen.Generate(datagen.DefaultConfig(3000))},
	}
}

// goldenQuery is one named automaton of the pin.
type goldenQuery struct {
	name string
	m    *mfa.MFA
}

// goldenQueries returns sourceQueries compiled over the source, plus the
// two view queries of doc_hot (Examples 1.1 and 4.1) rewritten over σ0.
// doc_hot's seven source queries are all in sourceQueries.
func goldenQueries() []goldenQuery {
	var out []goldenQuery
	for _, src := range sourceQueries {
		out = append(out, goldenQuery{src, mfa.MustCompile(xpath.MustParse(src))})
	}
	v := hospital.Sigma0()
	for _, src := range []string{hospital.QExample11, hospital.QExample41} {
		out = append(out, goldenQuery{"sigma0:" + src, rewrite.MustRewrite(v, xpath.MustParse(src))})
	}
	return out
}

// goldenPair is one generated (document, query) case.
type goldenPair struct {
	xml, query string
}

// goldenPairs returns numGoldenPairs small generated cases from a fixed
// seed. Documents use labels a, b and c to depth 4; queries also use d,
// which no document has, so transitions on absent labels are covered.
// Both sides are kept in concrete syntax and re-parsed, so the pin and
// the check compile exactly the same automaton over exactly the same tree.
func goldenPairs() []goldenPair {
	const numGoldenPairs = 400
	rng := rand.New(rand.NewSource(16))
	docLabels := []string{"a", "b", "c"}
	queryLabels := []string{"a", "b", "c", "d"}
	texts := []string{"", "x", "y"}
	var genPath func(depth int) xpath.Path
	var genPred func(depth int) xpath.Pred
	genPath = func(depth int) xpath.Path {
		if depth <= 0 {
			switch rng.Intn(3) {
			case 0:
				return xpath.Empty{}
			case 1:
				return xpath.Wildcard{}
			default:
				return &xpath.Label{Name: queryLabels[rng.Intn(len(queryLabels))]}
			}
		}
		switch rng.Intn(8) {
		case 0, 1, 2:
			return &xpath.Seq{Left: genPath(depth - 1), Right: genPath(depth - 1)}
		case 3:
			return &xpath.Union{Left: genPath(depth - 1), Right: genPath(depth - 1)}
		case 4:
			return &xpath.Star{Sub: genPath(depth - 1)}
		case 5, 6:
			return &xpath.Filter{Path: genPath(depth - 1), Cond: genPred(depth - 1)}
		default:
			return genPath(0)
		}
	}
	genPred = func(depth int) xpath.Pred {
		if depth <= 0 {
			return &xpath.Exists{Path: genPath(0)}
		}
		switch rng.Intn(8) {
		case 0, 1:
			return &xpath.Not{Sub: genPred(depth - 1)}
		case 2:
			return &xpath.And{Left: genPred(depth - 1), Right: genPred(depth - 1)}
		case 3:
			return &xpath.Or{Left: genPred(depth - 1), Right: genPred(depth - 1)}
		case 4:
			return &xpath.TextEq{Path: genPath(depth - 1), Value: texts[rng.Intn(len(texts))]}
		case 5:
			return &xpath.PosEq{Path: genPath(depth - 1), K: 1 + rng.Intn(3)}
		default:
			return &xpath.Exists{Path: genPath(depth - 1)}
		}
	}
	var out []goldenPair
	for len(out) < numGoldenPairs {
		d := xmltree.NewDocument("r")
		var grow func(n *xmltree.Node, depth int)
		grow = func(n *xmltree.Node, depth int) {
			for i, k := 0, rng.Intn(4); i < k; i++ {
				if rng.Intn(4) == 0 {
					d.AddText(n, texts[rng.Intn(len(texts))])
					continue
				}
				c := d.AddElement(n, docLabels[rng.Intn(len(docLabels))])
				if depth < 4 {
					grow(c, depth+1)
				}
			}
		}
		grow(d.Root, 0)
		q := genPath(3).String()
		if _, err := xpath.Parse(q); err != nil {
			continue
		}
		out = append(out, goldenPair{xml: d.XMLString(), query: q})
	}
	return out
}

// goldenCase is one pinned evaluation: its answers and Stats.
type goldenCase struct {
	Doc string `json:"doc"`
	// XML is a generated case's document; named documents leave it empty.
	XML   string     `json:"xml,omitempty"`
	Query string     `json:"query"`
	Index bool       `json:"index"`
	Stats hype.Stats `json:"stats"`
	Count int        `json:"count"`
	// Hash is the FNV-1a 64 hash of the answer ids (see idsHash); IDs
	// lists them when there are at most maxGoldenIDs.
	Hash string `json:"hash"`
	IDs  []int  `json:"ids,omitempty"`
}

// goldenTrace is one pinned trace: every event of a traced run on the
// sample document.
type goldenTrace struct {
	Query  string            `json:"query"`
	Index  bool              `json:"index"`
	Events []hype.TraceEvent `json:"events"`
}

// maxGoldenIDs bounds the answer ids the pin spells out per case.
const maxGoldenIDs = 32

// idsHash fingerprints an answer id list.
func idsHash(ids []int) string {
	h := fnv.New64a()
	fmt.Fprint(h, ids)
	return fmt.Sprintf("%016x", h.Sum64())
}

// newGoldenCase records one evaluation's answers and Stats.
func newGoldenCase(doc, query string, index bool, st hype.Stats, ids []int) goldenCase {
	gc := goldenCase{Doc: doc, Query: query, Index: index, Stats: st, Count: len(ids), Hash: idsHash(ids)}
	if len(ids) > 0 && len(ids) <= maxGoldenIDs {
		gc.IDs = ids
	}
	return gc
}
