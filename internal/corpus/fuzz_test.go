package corpus

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// FuzzManifestDecode feeds truncated, bit-flipped, forged and arbitrary
// bytes to decodeManifest. It must accept the input or fail with a
// *ManifestError — never panic, never allocate what a forged length asks
// for — and a manifest it accepts must re-encode to bytes that decode to
// the same generation and documents. The seeds also run as regression
// inputs on every go test.
func FuzzManifestDecode(f *testing.F) {
	docs := []manifestDoc{
		{File: "b.xml", Size: 31, MtimeNS: 1700000000, CRC: 0xdeadbeef, Status: "indexed"},
		{File: "a.xml", Size: 12, Status: "quarantined", Reason: "parse: unexpected EOF", Retries: 2},
	}
	var seeds [][]byte
	for _, d := range [][]manifestDoc{docs, nil} {
		buf, err := encodeManifest(7, d)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf)
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)/2]) // truncated mid-payload
		f.Add(s[:len(s)-1]) // truncated checksum trailer
		flip := bytes.Clone(s)
		flip[len(flip)/2] ^= 0x20 // bit flip inside the checksummed region
		f.Add(flip)
		version := bytes.Clone(s)
		version[8] = 9 // unsupported format version
		f.Add(version)
	}
	f.Add([]byte{})
	f.Add([]byte(manifestMagic))
	// A header claiming a payload just over the cap: rejected on the
	// length check, before anything is read or allocated.
	forged := binary.LittleEndian.AppendUint32([]byte(manifestMagic), manifestVersion)
	forged = binary.LittleEndian.AppendUint64(forged, 1)
	forged = binary.LittleEndian.AppendUint32(forged, maxManifestPayload+1)
	f.Add(binary.LittleEndian.AppendUint32(forged, 0))
	// A correctly checksummed payload that is not JSON.
	notJSON := binary.LittleEndian.AppendUint32([]byte(manifestMagic), manifestVersion)
	notJSON = binary.LittleEndian.AppendUint64(notJSON, 1)
	notJSON = binary.LittleEndian.AppendUint32(notJSON, 3)
	notJSON = append(notJSON, "{{{"...)
	f.Add(binary.LittleEndian.AppendUint32(notJSON, crc32.ChecksumIEEE(notJSON)))
	// A manifest carrying the retired "labels", "elements" and
	// "text_bloom" members (see TestManifestWithTextBloomRecovers):
	// accepted, the members ignored.
	old, err := os.ReadFile(filepath.Join(textBloomFixture, manifestName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)

	f.Fuzz(func(t *testing.T, data []byte) {
		gen, got, err := decodeManifest("fuzz", data)
		if err != nil {
			var me *ManifestError
			if !errors.As(err, &me) {
				t.Fatalf("decodeManifest returned an untyped error: %v", err)
			}
			return
		}
		re, err := encodeManifest(gen, got)
		if err != nil {
			t.Fatalf("accepted manifest does not re-encode: %v", err)
		}
		gen2, got2, err := decodeManifest("fuzz", re)
		if err != nil {
			t.Fatalf("re-encoded manifest rejected: %v", err)
		}
		if gen2 != gen || !reflect.DeepEqual(canonDocs(t, got2), canonDocs(t, got)) {
			t.Fatalf("round trip changed the manifest: gen %d → %d, docs %+v → %+v", gen, gen2, got, got2)
		}
	})
}

// canonDocs renders docs in an order-independent canonical form (the
// encoder sorts by file name, and names may repeat in a forged manifest).
func canonDocs(t *testing.T, docs []manifestDoc) []string {
	t.Helper()
	out := make([]string, len(docs))
	for i, d := range docs {
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	sort.Strings(out)
	return out
}
