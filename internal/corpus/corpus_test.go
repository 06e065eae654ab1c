package corpus

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"smoqe/internal/colstore"
	"smoqe/internal/failpoint"
	"smoqe/internal/hype"
	"smoqe/internal/xmltree"
)

// fakeClock is a settable Options.Now seam.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time // guarded by mu
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1700000000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func writeXML(t *testing.T, dir, name, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func writeSnapshot(t *testing.T, dir, name, xml string) {
	t.Helper()
	tree, err := xmltree.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	if err := colstore.FromTree(tree).Save(filepath.Join(dir, name)); err != nil {
		t.Fatal(err)
	}
}

// newCorpusDir builds root/col with two XML documents and one snapshot.
func newCorpusDir(t *testing.T) (root, col string) {
	t.Helper()
	root = t.TempDir()
	col = filepath.Join(root, "col")
	if err := os.Mkdir(col, 0o755); err != nil {
		t.Fatal(err)
	}
	writeXML(t, col, "a.xml", `<a><b>one</b></a>`)
	writeXML(t, col, "b.xml", `<a><c>two</c></a>`)
	writeSnapshot(t, col, "c.smoqe-snapshot", `<a><d>three</d></a>`)
	return root, col
}

func testOptions(clk *fakeClock) Options {
	return Options{Now: clk.Now}
}

func TestOpenIndexesAndPersists(t *testing.T) {
	root, col := newCorpusDir(t)
	clk := newFakeClock()
	m, err := Open(context.Background(), root, testOptions(clk))
	if err != nil {
		t.Fatal(err)
	}
	c, ok := m.Collection("col")
	if !ok {
		t.Fatalf("collection col missing; have %v", m.Collections())
	}
	docs := c.Docs(StatusIndexed)
	if len(docs) != 3 {
		t.Fatalf("indexed %d docs, want 3: %+v", len(docs), c.Docs())
	}
	for _, d := range docs {
		if d.Col == nil {
			t.Errorf("%s: indexed without a columnar document", d.Name)
		}
		if d.Fingerprint.Elements == 0 {
			t.Errorf("%s: empty fingerprint", d.Name)
		}
	}
	gen := c.Generation()
	if gen == 0 {
		t.Fatal("generation still 0 after indexing")
	}
	if _, err := os.Stat(filepath.Join(col, manifestName(gen))); err != nil {
		t.Fatalf("durable manifest missing: %v", err)
	}

	// A restart with unchanged files must converge to the same generation
	// (revalidation is not a state change).
	m2, err := Open(context.Background(), root, testOptions(clk))
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := m2.Collection("col")
	if g2 := c2.Generation(); g2 != gen {
		t.Errorf("restart moved generation %d -> %d", gen, g2)
	}
	if n := len(c2.Docs(StatusIndexed)); n != 3 {
		t.Errorf("restart indexed %d docs, want 3", n)
	}
}

func TestQuarantineCorrupt(t *testing.T) {
	root, col := newCorpusDir(t)
	writeXML(t, col, "bad.xml", `<a><unclosed>`)
	writeXML(t, col, "bad.smoqe-snapshot", `not a snapshot`)
	clk := newFakeClock()
	m, err := Open(context.Background(), root, testOptions(clk))
	if err != nil {
		t.Fatal(err)
	}
	c, _ := m.Collection("col")
	q := c.Docs(StatusQuarantined)
	if len(q) != 2 {
		t.Fatalf("quarantined %d docs, want 2: %+v", len(q), c.Docs())
	}
	for _, d := range q {
		if d.Reason == "" {
			t.Errorf("%s: quarantined without reason", d.Name)
		}
		if d.Col != nil {
			t.Errorf("%s: quarantined doc carries a columnar document", d.Name)
		}
	}
	if n := len(c.Docs(StatusIndexed)); n != 3 {
		t.Errorf("indexed %d docs, want 3", n)
	}
	gen := c.Generation()

	// The verdict stands across rescans without churning the generation.
	if err := m.scanAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if g := c.Generation(); g != gen {
		t.Errorf("rescan of unchanged quarantined docs moved generation %d -> %d", gen, g)
	}

	// Fixing the file clears the quarantine on the next scan.
	time.Sleep(5 * time.Millisecond) // ensure a new mtime even on coarse clocks
	writeXML(t, col, "bad.xml", `<a>fixed</a>`)
	if err := m.scanAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := len(c.Docs(StatusIndexed)); n != 4 {
		t.Errorf("after fix: indexed %d docs, want 4: %+v", n, c.Docs())
	}
}

// TestOverLimitSnapshotQuarantined: a collection snapshot beyond
// Options.ParseLimits is quarantined with a reason naming the limit, as
// the same document in XML is; the documents within the limits index.
func TestOverLimitSnapshotQuarantined(t *testing.T) {
	root, col := newCorpusDir(t)
	deep := strings.Repeat("<a>", 6) + "x" + strings.Repeat("</a>", 6)
	writeSnapshot(t, col, "deep.smoqe-snapshot", deep)
	writeXML(t, col, "deep.xml", deep)
	opt := testOptions(newFakeClock())
	opt.ParseLimits = xmltree.ParseLimits{MaxDepth: 5}
	m, err := Open(context.Background(), root, opt)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := m.Collection("col")
	q := c.Docs(StatusQuarantined)
	if len(q) != 2 {
		t.Fatalf("quarantined %d docs, want 2: %+v", len(q), c.Docs())
	}
	for _, d := range q {
		if !strings.Contains(d.Reason, "depth limit (5)") {
			t.Errorf("%s: quarantine reason %q does not name the depth limit", d.Name, d.Reason)
		}
	}
	if n := len(c.Docs(StatusIndexed)); n != 3 {
		t.Errorf("indexed %d docs, want 3", n)
	}
}

// TestOverCapXMLRefusedUnread: an XML file larger than
// ParseLimits.MaxBytes is quarantined from its size, with the reason the
// decoder gives a document over the byte cap, and is never read: opening
// a collection that holds a 256 MiB sparse file under a 1 MiB cap
// allocates far less than the file.
func TestOverCapXMLRefusedUnread(t *testing.T) {
	root := t.TempDir()
	col := filepath.Join(root, "col")
	if err := os.Mkdir(col, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(col, "huge.xml"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(256 << 20); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	opt := testOptions(newFakeClock())
	opt.ParseLimits = xmltree.ParseLimits{MaxBytes: 1 << 20}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := Open(context.Background(), root, opt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := m.Collection("col")
	q := c.Docs(StatusQuarantined)
	if len(q) != 1 {
		t.Fatalf("quarantined %d docs, want 1: %+v", len(q), c.Docs())
	}
	if want := "parse: xmltree: parse: xmltree: document exceeds bytes limit (1048576)"; q[0].Reason != want {
		t.Errorf("quarantine reason %q, want %q", q[0].Reason, want)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
		t.Errorf("Open allocated %d MiB for a refused 256 MiB file", alloc>>20)
	}
}

func TestChangeAndDeleteDetection(t *testing.T) {
	root, col := newCorpusDir(t)
	clk := newFakeClock()
	m, err := Open(context.Background(), root, testOptions(clk))
	if err != nil {
		t.Fatal(err)
	}
	c, _ := m.Collection("col")
	gen := c.Generation()

	time.Sleep(5 * time.Millisecond)
	writeXML(t, col, "a.xml", `<a><b>changed</b><b>more</b></a>`)
	if err := os.Remove(filepath.Join(col, "b.xml")); err != nil {
		t.Fatal(err)
	}
	if err := m.scanAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if g := c.Generation(); g <= gen {
		t.Errorf("generation did not advance on change: %d -> %d", gen, g)
	}
	docs := c.Docs(StatusIndexed)
	if len(docs) != 2 {
		t.Fatalf("indexed %d docs, want 2: %+v", len(docs), docs)
	}
	var a *Doc
	for _, d := range docs {
		if d.Name == "a.xml" {
			a = d
		}
		if d.Name == "b.xml" {
			t.Error("deleted b.xml still present")
		}
	}
	if a == nil || a.Fingerprint.Elements != 3 {
		t.Fatalf("a.xml not reindexed: %+v", a)
	}
}

// TestTransientRetryThenQuarantine: a document whose indexing keeps
// failing is retried on every scan, with no time gate (the clock never
// moves), and the fourth consecutive failure quarantines it.
func TestTransientRetryThenQuarantine(t *testing.T) {
	root, _ := newCorpusDir(t)
	if err := failpoint.Enable(failpoint.SiteCorpusIndexDoc, "error"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()
	m, err := Open(context.Background(), root, testOptions(newFakeClock()))
	if err != nil {
		t.Fatal(err)
	}
	c, _ := m.Collection("col")
	rescan := func() {
		t.Helper()
		if err := m.scanAll(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for scan := 1; scan <= 3; scan++ { // Open ran scan 1
		if scan > 1 {
			rescan()
		}
		pending := c.Docs(StatusPending)
		if len(pending) != 3 {
			t.Fatalf("scan %d: pending %d docs, want 3: %+v", scan, len(pending), c.Docs())
		}
		for _, d := range pending {
			if d.Retries != scan {
				t.Errorf("scan %d: %s: retries = %d, want %d", scan, d.Name, d.Retries, scan)
			}
		}
	}
	rescan()
	if n := len(c.Docs(StatusQuarantined)); n != 3 {
		t.Fatalf("quarantined %d docs after scan 4, want 3: %+v", n, c.Docs())
	}

	// Reindex is the manual escape hatch once the fault is gone.
	failpoint.DisableAll()
	info, err := m.Reindex(context.Background(), "col")
	if err != nil {
		t.Fatal(err)
	}
	if info.Indexed != 3 || info.Quarantined != 0 {
		t.Errorf("after reindex: %+v, want 3 indexed", info)
	}
}

func TestManifestRecoveryFallsBack(t *testing.T) {
	root, col := newCorpusDir(t)
	clk := newFakeClock()
	m, err := Open(context.Background(), root, testOptions(clk))
	if err != nil {
		t.Fatal(err)
	}
	c, _ := m.Collection("col")
	gen1 := c.Generation()

	// Force a second generation so two manifests are retained.
	time.Sleep(5 * time.Millisecond)
	writeXML(t, col, "d.xml", `<a>new</a>`)
	if err := m.scanAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	gen2 := c.Generation()
	if gen2 <= gen1 {
		t.Fatalf("generation did not advance: %d -> %d", gen1, gen2)
	}

	// Corrupt the newest manifest: flip a byte in its payload.
	newest := filepath.Join(col, manifestName(gen2))
	buf, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(newest, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	gen, docs, skipped := recoverManifest(col)
	if gen != gen1 {
		t.Errorf("recovered generation %d, want fallback to %d", gen, gen1)
	}
	if len(skipped) != 1 {
		t.Errorf("skipped %d manifests, want 1: %v", len(skipped), skipped)
	}
	if len(docs) != 3 {
		t.Errorf("fallback manifest has %d docs, want 3", len(docs))
	}

	// A full reopen over the corrupt manifest still converges: the scan
	// revalidates and republishes.
	m2, err := Open(context.Background(), root, testOptions(clk))
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := m2.Collection("col")
	if n := len(c2.Docs(StatusIndexed)); n != 4 {
		t.Errorf("reopen indexed %d docs, want 4", n)
	}
	if g := c2.Generation(); g < gen1 {
		t.Errorf("reopen regressed generation to %d (< %d)", g, gen1)
	}
}

// textBloomFixture is a collection directory whose manifest (generation 1)
// was written before fingerprints sized their text filter per document: its
// record for ward.xml carries a 64-bit "text_bloom" member.
const textBloomFixture = "testdata/textbloom/col"

// TestManifestWithTextBloomRecovers: a manifest carrying the retired
// "text_bloom" member still recovers its generation and records, and a
// restart over the unchanged file keeps that generation and serves the
// document, re-fingerprinted from the file.
func TestManifestWithTextBloomRecovers(t *testing.T) {
	root := t.TempDir()
	col := filepath.Join(root, "col")
	if err := os.Mkdir(col, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(textBloomFixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(textBloomFixture, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		writeXML(t, col, ent.Name(), string(data))
	}
	// The record identifies the file by size and mtime; restore the mtime
	// the manifest recorded.
	mtime := time.Unix(1700000000, 0)
	if err := os.Chtimes(filepath.Join(col, "ward.xml"), mtime, mtime); err != nil {
		t.Fatal(err)
	}

	gen, docs, skipped := recoverManifest(col)
	// The record also carries "labels", "elements" and "text_bloom",
	// which decoding ignores.
	want := manifestDoc{File: "ward.xml", Size: 28, MtimeNS: mtime.UnixNano(), CRC: 660788394,
		Status: "indexed"}
	if gen != 1 || len(skipped) != 0 || len(docs) != 1 || !reflect.DeepEqual(docs[0], want) {
		t.Fatalf("recovered gen %d, docs %+v, skipped %v; want gen 1, docs [%+v]", gen, docs, skipped, want)
	}

	m, err := Open(context.Background(), root, testOptions(newFakeClock()))
	if err != nil {
		t.Fatal(err)
	}
	c, _ := m.Collection("col")
	if g := c.Generation(); g != 1 {
		t.Errorf("restart over the unchanged file moved generation 1 -> %d", g)
	}
	indexed := c.Docs(StatusIndexed)
	if len(indexed) != 1 || indexed[0].Col == nil {
		t.Fatalf("indexed docs = %+v, want ward.xml with its columnar document", c.Docs())
	}
	if fp := indexed[0].Fingerprint; fp.Elements != 3 || !fp.MayHaveText("two") {
		t.Errorf("ward.xml re-fingerprinted as %+v", fp)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	cd := colstore.FromTree(xmltree.NewDocument("a"))
	indexed := &Doc{Name: "b.xml", Status: StatusIndexed, Size: 10, MtimeNS: 123, CRC: 7,
		Fingerprint: hype.FingerprintDoc(cd), Col: cd}
	docs := []manifestDoc{
		toManifestDoc(indexed),
		{File: "a.xml", Size: 5, MtimeNS: 456, CRC: 9, Status: "quarantined", Reason: "parse: bad", Retries: 3},
	}
	buf, err := encodeManifest(42, docs)
	if err != nil {
		t.Fatal(err)
	}
	// An indexed record keeps only what recovery reads: no fingerprint.
	for _, member := range []string{`"labels"`, `"elements"`} {
		if bytes.Contains(buf, []byte(member)) {
			t.Errorf("manifest carries a %s member: %s", member, buf)
		}
	}
	gen, got, err := decodeManifest("t", buf)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 42 || len(got) != 2 {
		t.Fatalf("decoded gen=%d docs=%d", gen, len(got))
	}
	if got[0].File != "a.xml" || got[1].File != "b.xml" {
		t.Errorf("docs not sorted by file: %+v", got)
	}

	// Every truncation and every single-byte flip must be rejected.
	for n := 0; n < len(buf); n++ {
		if _, _, err := decodeManifest("t", buf[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	for i := 0; i < len(buf); i++ {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x01
		if _, _, err := decodeManifest("t", mut); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
}

func TestManifestNameRoundTrip(t *testing.T) {
	for _, gen := range []uint64{0, 1, 42, 1 << 40} {
		g, ok := parseManifestName(manifestName(gen))
		if !ok || g != gen {
			t.Errorf("parseManifestName(manifestName(%d)) = %d, %v", gen, g, ok)
		}
	}
	for _, bad := range []string{"manifest-zz.smoqe-manifest", "manifest-0.smoqe-manifest", "other.xml", "manifest-0000000000000001.smoqe-manifest.tmp"} {
		if _, ok := parseManifestName(bad); ok {
			t.Errorf("parseManifestName(%q) accepted", bad)
		}
	}
}

func TestManifestPrune(t *testing.T) {
	dir := t.TempDir()
	for gen := uint64(1); gen <= 5; gen++ {
		if err := writeManifest(dir, gen, nil); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != manifestKeep {
		t.Fatalf("retained %v, want %d newest", names, manifestKeep)
	}
	gen, _, _ := recoverManifest(dir)
	if gen != 5 {
		t.Errorf("recovered generation %d, want 5", gen)
	}
}

func TestBackgroundLoopPicksUpChanges(t *testing.T) {
	root, col := newCorpusDir(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := Options{ScanInterval: 10 * time.Millisecond}
	m, err := Open(ctx, root, opt)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(ctx)
	defer m.Close()
	c, _ := m.Collection("col")
	gen := c.Generation()
	time.Sleep(5 * time.Millisecond)
	writeXML(t, col, "late.xml", `<late>doc</late>`)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if docs := c.Docs(StatusIndexed); len(docs) == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background loop never indexed late.xml: %+v", c.Docs())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if g := c.Generation(); g <= gen {
		t.Errorf("generation did not advance: %d -> %d", gen, g)
	}
	m.Close()
	m.Wait()
}

func TestReindexInProgress(t *testing.T) {
	root, _ := newCorpusDir(t)
	clk := newFakeClock()
	m, err := Open(context.Background(), root, testOptions(clk))
	if err != nil {
		t.Fatal(err)
	}
	c, _ := m.Collection("col")
	c.mu.Lock()
	c.scanning = true
	c.mu.Unlock()
	if _, err := m.Reindex(context.Background(), "col"); err != ErrReindexInProgress {
		t.Errorf("Reindex during scan: err = %v, want ErrReindexInProgress", err)
	}
	c.mu.Lock()
	c.scanning = false
	c.mu.Unlock()
	if _, err := m.Reindex(context.Background(), "col"); err != nil {
		t.Errorf("Reindex after scan: %v", err)
	}
	if _, err := m.Reindex(context.Background(), "nope"); !errors.Is(err, ErrUnknownCollection) || !strings.Contains(err.Error(), `unknown collection "nope"`) {
		t.Errorf("Reindex(unknown) err = %v", err)
	}
}
