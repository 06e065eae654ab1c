package view_test

import (
	"strings"
	"testing"

	"smoqe/internal/hospital"
	"smoqe/internal/view"
)

// FuzzViewParse feeds view specifications over the hospital DTDs to Parse.
// It must never panic, and a view it accepts must print to a specification
// that parses back to the same print (the printer is a fixpoint). The
// seeds — σ0 itself and near misses of it — also run as regression inputs
// on every go test.
func FuzzViewParse(f *testing.F) {
	sigma0 := hospital.Sigma0Source
	for _, s := range []string{
		sigma0,
		hospital.Sigma0().String(),
		sigma0[:len(sigma0)/2],                            // truncated mid-annotation
		strings.Replace(sigma0, ";", "", 1),               // missing terminator
		strings.Replace(sigma0, "}", "} trailing", 1),     // trailing input
		strings.Replace(sigma0, "= ", "= [", 1),           // broken annotation query
		strings.Replace(sigma0, "patient/", "nosuch/", 1), // edge outside the view DTD
		strings.Replace(sigma0, "view", "veiw", 1),        // wrong keyword
		"view v { }",                                      // annotates no edge of the view DTD
		"view v { a/b }",                                  // annotation without "="
		"view", "", "view \xff { }",
		"# only a comment\n",
	} {
		f.Add(s)
	}
	src, tgt := hospital.DocDTD(), hospital.ViewDTD()
	f.Fuzz(func(t *testing.T, spec string) {
		v, err := view.Parse(spec, src, tgt)
		if err != nil {
			return
		}
		s1 := v.String()
		v2, err := view.Parse(s1, src, tgt)
		if err != nil {
			t.Fatalf("accepted %q but rejected its own print:\n%s\n%v", spec, s1, err)
		}
		if s2 := v2.String(); s2 != s1 {
			t.Fatalf("printer not a fixpoint:\n%s\nvs\n%s", s1, s2)
		}
	})
}
