package colstore

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smoqe/internal/hospital"
	"smoqe/internal/xmltree"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden snapshot fixture under testdata/")

// TestGoldenSnapshot pins the on-disk format: the checked-in snapshot of
// the paper's hospital sample document must (a) still load and reproduce
// the sample tree exactly, and (b) be byte-identical to what the current
// code serializes. If (b) fails, the format changed — bump snapshotVersion
// (old snapshots must be rejected, not misread) and regenerate the fixture
// with: go test ./internal/colstore -run TestGoldenSnapshot -update-golden
func TestGoldenSnapshot(t *testing.T) {
	path := filepath.Join("testdata", "hospital"+FileExt)
	d := hospital.SampleDocument()
	cd := FromTree(d)
	var buf bytes.Buffer
	if err := cd.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, buf.Len())
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("golden snapshot no longer loads: %v", err)
	}
	checkEquivalent(t, d, loaded)
	if !bytes.Equal(raw, buf.Bytes()) {
		t.Fatalf("golden snapshot drift: version-%d serialization of the sample document no longer matches testdata (got %d bytes, golden %d); if the format changed, bump snapshotVersion and regenerate with -update-golden",
			snapshotVersion, buf.Len(), len(raw))
	}
	// Decoding the sample's XML straight into columns, as every intake
	// does, must serialize to the same golden bytes.
	decoded, err := Decode(strings.NewReader(hospital.SampleXML), false, xmltree.ParseLimits{})
	if err != nil {
		t.Fatal(err)
	}
	var dbuf bytes.Buffer
	if err := decoded.WriteSnapshot(&dbuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, dbuf.Bytes()) {
		t.Fatalf("Decode of the sample XML serializes to %d bytes that differ from the golden %d", dbuf.Len(), len(raw))
	}
}
