package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"smoqe/internal/colstore"
	"smoqe/internal/hospital"
)

// writeFixtures writes the hospital DTDs, view spec and sample document
// into a temp dir and returns their paths.
func writeFixtures(t *testing.T) (docDTD, viewDTD, spec, doc string) {
	t.Helper()
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	return write("doc.dtd", hospital.DocDTDSource),
		write("view.dtd", hospital.ViewDTDSource),
		write("sigma0.view", hospital.Sigma0Source),
		write("sample.xml", hospital.SampleXML)
}

func TestCmdEval(t *testing.T) {
	_, _, _, doc := writeFixtures(t)
	for _, engine := range []string{"hype", "opthype", "opthype-c", "ref", "twopass"} {
		err := cmdEval([]string{"-query", hospital.XPA, "-doc", doc, "-engine", engine, "-stats", "-paths"})
		if err != nil {
			t.Errorf("eval with %s: %v", engine, err)
		}
	}
	if err := cmdEval([]string{"-query", "a[", "-doc", doc}); err == nil {
		t.Error("bad query must fail")
	}
	if err := cmdEval([]string{"-query", "a", "-doc", doc, "-engine", "nope"}); err == nil {
		t.Error("unknown engine must fail")
	}
	if err := cmdEval([]string{"-query", "a"}); err == nil {
		t.Error("missing -doc must fail")
	}
	if err := cmdEval([]string{"-query", "a", "-doc", "/nonexistent.xml"}); err == nil {
		t.Error("missing file must fail")
	}
}

func TestCmdRewriteAndAnswer(t *testing.T) {
	docDTD, viewDTD, spec, doc := writeFixtures(t)
	if err := cmdRewrite([]string{"-query", hospital.QExample11, "-view", spec,
		"-docdtd", docDTD, "-viewdtd", viewDTD, "-print"}); err != nil {
		t.Errorf("rewrite: %v", err)
	}
	if err := cmdAnswer([]string{"-query", hospital.QExample11, "-view", spec,
		"-docdtd", docDTD, "-viewdtd", viewDTD, "-doc", doc, "-paths"}); err != nil {
		t.Errorf("answer: %v", err)
	}
	if err := cmdRewrite([]string{"-query", "patient[record/position()=1]", "-view", spec,
		"-docdtd", docDTD, "-viewdtd", viewDTD}); err == nil {
		t.Error("position() rewriting must fail")
	}
	if err := cmdRewrite([]string{"-query", "a"}); err == nil {
		t.Error("missing flags must fail")
	}
}

func TestCmdMaterializeAndValidate(t *testing.T) {
	docDTD, viewDTD, spec, doc := writeFixtures(t)
	out := filepath.Join(t.TempDir(), "view.xml")
	if err := cmdMaterialize([]string{"-view", spec, "-docdtd", docDTD,
		"-viewdtd", viewDTD, "-doc", doc, "-o", out}); err != nil {
		t.Fatalf("materialize: %v", err)
	}
	// The materialized view must validate against the view DTD.
	if err := cmdValidate([]string{"-dtd", viewDTD, "-doc", out}); err != nil {
		t.Errorf("validate view: %v", err)
	}
	// The source validates against the source DTD.
	if err := cmdValidate([]string{"-dtd", docDTD, "-doc", doc}); err != nil {
		t.Errorf("validate source: %v", err)
	}
	// Cross validation fails.
	if err := cmdValidate([]string{"-dtd", docDTD, "-doc", out}); err == nil {
		t.Error("view must not validate against the source DTD")
	}
}

func TestCmdPrecompiledRoundTrip(t *testing.T) {
	docDTD, viewDTD, spec, doc := writeFixtures(t)
	bin := filepath.Join(t.TempDir(), "q.mfa")
	if err := cmdRewrite([]string{"-query", hospital.QExample11, "-view", spec,
		"-docdtd", docDTD, "-viewdtd", viewDTD, "-o", bin}); err != nil {
		t.Fatalf("rewrite -o: %v", err)
	}
	if err := cmdEval([]string{"-mfa", bin, "-doc", doc, "-paths"}); err != nil {
		t.Errorf("eval -mfa: %v", err)
	}
	// -mfa with a non-automaton engine is rejected.
	if err := cmdEval([]string{"-mfa", bin, "-doc", doc, "-engine", "ref"}); err == nil {
		t.Error("eval -mfa -engine ref must fail")
	}
	// Both -query and -mfa is rejected.
	if err := cmdEval([]string{"-mfa", bin, "-query", "a", "-doc", doc}); err == nil {
		t.Error("eval with both -query and -mfa must fail")
	}
}

func TestCmdBatch(t *testing.T) {
	docDTD, viewDTD, spec, doc := writeFixtures(t)
	qfile := filepath.Join(t.TempDir(), "queries.txt")
	queries := "# comment\n" + hospital.XPA + "\n\n" + hospital.RXC + "\n//diagnosis\n"
	if err := os.WriteFile(qfile, []byte(queries), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdBatch([]string{"-queries", qfile, "-doc", doc}); err != nil {
		t.Errorf("batch: %v", err)
	}
	// Batch over a view.
	vq := filepath.Join(t.TempDir(), "vq.txt")
	if err := os.WriteFile(vq, []byte("patient\npatient/record/diagnosis\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdBatch([]string{"-queries", vq, "-doc", doc, "-view", spec,
		"-docdtd", docDTD, "-viewdtd", viewDTD}); err != nil {
		t.Errorf("batch over view: %v", err)
	}
	// Error paths.
	if err := cmdBatch([]string{"-doc", doc}); err == nil {
		t.Error("missing -queries must fail")
	}
	empty := filepath.Join(t.TempDir(), "empty.txt")
	os.WriteFile(empty, []byte("# nothing\n"), 0o644)
	if err := cmdBatch([]string{"-queries", empty, "-doc", doc}); err == nil {
		t.Error("empty query file must fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.txt")
	os.WriteFile(bad, []byte("a[[\n"), 0o644)
	if err := cmdBatch([]string{"-queries", bad, "-doc", doc}); err == nil {
		t.Error("bad query must fail")
	}
}

// TestCmdSnapshotSave: snapshot save decodes the XML straight into
// columns and writes exactly the bytes of the snapshot of the sample
// document's tree, and snapshot load reads them back.
func TestCmdSnapshotSave(t *testing.T) {
	_, _, _, doc := writeFixtures(t)
	out := filepath.Join(t.TempDir(), "sample"+colstore.FileExt)
	if err := cmdSnapshot([]string{"save", "-doc", doc, "-o", out}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := colstore.FromTree(hospital.SampleDocument()).WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("snapshot save wrote %d bytes that differ from the tree's %d-byte snapshot", len(got), want.Len())
	}
	if err := cmdSnapshot([]string{"load", "-in", out}); err != nil {
		t.Errorf("snapshot load: %v", err)
	}
	if err := cmdSnapshot([]string{"save", "-doc", "/nonexistent.xml", "-o", out}); err == nil {
		t.Error("missing file must fail")
	}
}

func TestCmdDerive(t *testing.T) {
	docDTD, _, _, doc := writeFixtures(t)
	dir := t.TempDir()
	policy := filepath.Join(dir, "policy.txt")
	if err := os.WriteFile(policy, []byte(`policy {
		deny department, name, pname, address, street, city, zip;
		deny treatment, test, medication, type, doctor, dname, specialty, date, sibling;
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := filepath.Join(dir, "derived.view")
	vdtd := filepath.Join(dir, "derived.dtd")
	if err := cmdDerive([]string{"-dtd", docDTD, "-policy", policy, "-o", spec, "-dtdout", vdtd}); err != nil {
		t.Fatalf("derive: %v", err)
	}
	// The derived artifacts feed straight into answer.
	if err := cmdAnswer([]string{"-query", "patient/visit/diagnosis", "-view", spec,
		"-docdtd", docDTD, "-viewdtd", vdtd, "-doc", doc}); err != nil {
		t.Errorf("answer over derived view: %v", err)
	}
	if err := cmdDerive([]string{"-dtd", docDTD}); err == nil {
		t.Error("missing -policy must fail")
	}
}
