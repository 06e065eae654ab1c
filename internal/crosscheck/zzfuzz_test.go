package crosscheck_test

// Temporary adversarial fuzz (review harness; to be deleted).

import (
	"fmt"
	"math/rand"
	"testing"

	"smoqe/internal/hype"
	"smoqe/internal/mfa"
	"smoqe/internal/refeval"
	"smoqe/internal/twopass"
	"smoqe/internal/xmltree"
	"smoqe/internal/xpath"
	"smoqe/internal/xqsim"
)

var labels = []string{"a", "b", "c"}
var texts = []string{"", "x", "y"}

func genDoc(rng *rand.Rand) *xmltree.Document {
	d := xmltree.NewDocument("r")
	var grow func(n *xmltree.Node, depth int)
	grow = func(n *xmltree.Node, depth int) {
		k := rng.Intn(4)
		for i := 0; i < k; i++ {
			if rng.Intn(4) == 0 {
				d.AddText(n, texts[rng.Intn(len(texts))])
				continue
			}
			c := d.AddElement(n, labels[rng.Intn(len(labels))])
			if depth < 4 {
				grow(c, depth+1)
			}
		}
	}
	grow(d.Root, 0)
	return d
}

func genPath(rng *rand.Rand, depth int) xpath.Path {
	if depth <= 0 {
		switch rng.Intn(3) {
		case 0:
			return xpath.Empty{}
		case 1:
			return xpath.Wildcard{}
		default:
			return &xpath.Label{Name: labels[rng.Intn(len(labels))]}
		}
	}
	switch rng.Intn(8) {
	case 0, 1, 2:
		return &xpath.Seq{Left: genPath(rng, depth-1), Right: genPath(rng, depth-1)}
	case 3:
		return &xpath.Union{Left: genPath(rng, depth-1), Right: genPath(rng, depth-1)}
	case 4:
		return &xpath.Star{Sub: genPath(rng, depth-1)}
	case 5, 6:
		return &xpath.Filter{Path: genPath(rng, depth-1), Cond: genPred(rng, depth-1)}
	default:
		return genPath(rng, 0)
	}
}

func genPred(rng *rand.Rand, depth int) xpath.Pred {
	if depth <= 0 {
		return &xpath.Exists{Path: genPath(rng, 0)}
	}
	switch rng.Intn(8) {
	case 0, 1:
		return &xpath.Not{Sub: genPred(rng, depth-1)}
	case 2:
		return &xpath.And{Left: genPred(rng, depth-1), Right: genPred(rng, depth-1)}
	case 3:
		return &xpath.Or{Left: genPred(rng, depth-1), Right: genPred(rng, depth-1)}
	case 4:
		return &xpath.TextEq{Path: genPath(rng, depth-1), Value: texts[rng.Intn(len(texts))]}
	case 5:
		return &xpath.PosEq{Path: genPath(rng, depth-1), K: 1 + rng.Intn(3)}
	default:
		return &xpath.Exists{Path: genPath(rng, depth-1)}
	}
}

func TestZZFuzzEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 4000; iter++ {
		doc := genDoc(rng)
		q := genPath(rng, 3)
		want := xmltree.IDsOf(refeval.Eval(q, doc.Root))
		m, err := mfa.Compile(q)
		if err != nil {
			t.Fatalf("iter %d: compile %s: %v", iter, q, err)
		}
		ms := mfa.Simplify(m)
		check := func(name string, got []*xmltree.Node) {
			g := xmltree.IDsOf(got)
			if fmt.Sprint(g) != fmt.Sprint(want) {
				t.Fatalf("iter %d: %s mismatch\nquery: %s\ndoc: %s\ngot  %v\nwant %v", iter, name, q, doc.XMLString(), g, want)
			}
		}
		check("mfa.Eval", mfa.Eval(m, doc.Root))
		check("mfa.Eval+simplify", mfa.Eval(ms, doc.Root))
		check("hype", hypeEval(t, hype.New(m), doc.Root))
		check("hype+simplify", hypeEval(t, hype.New(ms), doc.Root))
		check("opthype-c", optEval(t, hype.New(m), doc.Root))
		check("opthype-c+simplify", optEval(t, hype.New(ms), doc.Root))
		check("twopass", twopass.MustNew(q).Eval(doc.Root))
		check("xqsim", xqsim.Eval(q, doc.Root))
	}
}
