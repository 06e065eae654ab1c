// Package corpus manages collections of documents on disk: a directory per
// collection, a crash-safe versioned manifest per directory, and a
// background incremental indexer that keeps per-document fingerprints
// fresh while quarantining — never serving — anything that fails
// validation. See docs/CORPUS.md for the format and the recovery state
// machine.
package corpus

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"smoqe/internal/failpoint"
)

// Manifest file layout (little-endian), mirroring the snapshot trailer
// discipline: everything before the final CRC is covered by it, so a torn
// or bit-flipped manifest is detected before a single byte of it is
// trusted.
//
//	offset  size  field
//	0       8     magic "SMOQMANI"
//	8       4     format version (1)
//	12      8     generation
//	20      4     payload length
//	24      n     payload (JSON, sorted by file name)
//	24+n    4     CRC-32 (IEEE) of bytes [0, 24+n)
const (
	manifestMagic   = "SMOQMANI"
	manifestVersion = 1
	// manifestExt names durable manifest files: manifest-<gen hex>.<ext>.
	manifestExt = ".smoqe-manifest"
	// manifestKeep is how many generations are retained after a write; the
	// newest is authoritative, the rest are crash-recovery fallbacks.
	manifestKeep = 2
	// maxManifestPayload caps the JSON payload a reader will buffer, so a
	// forged length field cannot trigger a huge allocation.
	maxManifestPayload = 1 << 28
)

// manifestDoc is one document's durable record: what recovery reads.
// Recovery re-fingerprints every document from its file, so no fingerprint
// is stored. Older manifests also carry "labels" and "elements" for
// indexed documents, and older still a "text_bloom" member; decoding
// ignores all three.
type manifestDoc struct {
	File    string `json:"file"`
	Size    int64  `json:"size"`
	MtimeNS int64  `json:"mtime_ns"`
	CRC     uint32 `json:"crc32"`
	Status  string `json:"status"`
	Reason  string `json:"reason,omitempty"`
	Retries int    `json:"retries,omitempty"`
}

// manifestPayload is the JSON body of a manifest generation.
type manifestPayload struct {
	Docs []manifestDoc `json:"docs"`
}

// ManifestError reports a manifest file that failed validation; recovery
// treats the generation it names as nonexistent and falls back.
type ManifestError struct {
	Path   string
	Reason string
}

func (e *ManifestError) Error() string {
	return fmt.Sprintf("corpus: manifest %s: %s", e.Path, e.Reason)
}

// manifestName returns the durable file name of a generation; the
// zero-padded hex makes lexicographic order equal numeric order.
func manifestName(gen uint64) string {
	return fmt.Sprintf("manifest-%016x%s", gen, manifestExt)
}

// parseManifestName extracts the generation from a manifest file name.
func parseManifestName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "manifest-") || !strings.HasSuffix(name, manifestExt) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "manifest-"), manifestExt)
	if len(hex) != 16 {
		return 0, false
	}
	gen, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// encodeManifest serializes one generation, CRC trailer included.
func encodeManifest(gen uint64, docs []manifestDoc) ([]byte, error) {
	sorted := make([]manifestDoc, len(docs))
	copy(sorted, docs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].File < sorted[j].File })
	payload, err := json.Marshal(manifestPayload{Docs: sorted})
	if err != nil {
		return nil, fmt.Errorf("corpus: manifest encode: %w", err)
	}
	buf := make([]byte, 0, 24+len(payload)+4)
	buf = append(buf, manifestMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, manifestVersion)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// decodeManifest validates and decodes one manifest file's bytes.
func decodeManifest(path string, buf []byte) (uint64, []manifestDoc, error) {
	fail := func(reason string) (uint64, []manifestDoc, error) {
		return 0, nil, &ManifestError{Path: path, Reason: reason}
	}
	if len(buf) < 28 {
		return fail("truncated header")
	}
	if string(buf[:8]) != manifestMagic {
		return fail("bad magic")
	}
	if v := binary.LittleEndian.Uint32(buf[8:12]); v != manifestVersion {
		return fail(fmt.Sprintf("unsupported version %d", v))
	}
	gen := binary.LittleEndian.Uint64(buf[12:20])
	n := binary.LittleEndian.Uint32(buf[20:24])
	if n > maxManifestPayload || int64(len(buf)) != 24+int64(n)+4 {
		return fail("payload length mismatch")
	}
	want := binary.LittleEndian.Uint32(buf[24+n:])
	if crc32.ChecksumIEEE(buf[:24+n]) != want {
		return fail("checksum mismatch")
	}
	var p manifestPayload
	if err := json.Unmarshal(buf[24:24+n], &p); err != nil {
		return fail("payload: " + err.Error())
	}
	return gen, p.Docs, nil
}

// writeManifest durably publishes one generation: temp file, fsync,
// atomic rename, directory fsync, then pruning of generations older than
// the retained window. The corpus.manifest.write failpoint fires between
// the temp write and the rename — the window in which a crash leaves a
// stray temp file but never a torn manifest.
func writeManifest(dir string, gen uint64, docs []manifestDoc) error {
	buf, err := encodeManifest(gen, docs)
	if err != nil {
		return err
	}
	final := filepath.Join(dir, manifestName(gen))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("corpus: manifest write: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("corpus: manifest write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("corpus: manifest sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("corpus: manifest close: %w", err)
	}
	if err := failpoint.Inject(failpoint.SiteCorpusManifestWrite); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("corpus: manifest publish: %w", err)
	}
	syncDir(dir)
	pruneManifests(dir, gen)
	return nil
}

// syncDir best-effort fsyncs a directory so a freshly renamed manifest
// survives power loss; errors are ignored (some filesystems refuse it).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// pruneManifests removes stray temp files and manifest generations older
// than the retained window below latest. Best-effort: a failure leaves
// extra files that the next write retries.
func pruneManifests(dir string, latest uint64) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		name := ent.Name()
		if strings.HasSuffix(name, manifestExt+".tmp") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if gen, ok := parseManifestName(name); ok && gen+manifestKeep <= latest {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// recoverManifest loads the newest consistent manifest generation in dir,
// removing stray temp files on the way. Invalid manifests are skipped (the
// recovery fallback), and their paths reported for logging. gen is 0 with
// no docs when no valid manifest exists — a fresh directory.
func recoverManifest(dir string) (gen uint64, docs []manifestDoc, skipped []error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, nil, nil
	}
	var gens []uint64
	for _, ent := range ents {
		name := ent.Name()
		if strings.HasSuffix(name, manifestExt+".tmp") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if g, ok := parseManifestName(name); ok {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	for _, g := range gens {
		path := filepath.Join(dir, manifestName(g))
		buf, err := os.ReadFile(path)
		if err != nil {
			skipped = append(skipped, &ManifestError{Path: path, Reason: err.Error()})
			continue
		}
		fgen, fdocs, err := decodeManifest(path, buf)
		if err != nil {
			skipped = append(skipped, err)
			continue
		}
		if fgen != g {
			skipped = append(skipped, &ManifestError{Path: path, Reason: "generation does not match file name"})
			continue
		}
		return fgen, fdocs, skipped
	}
	return 0, nil, skipped
}
