package colstore

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"smoqe/internal/xmltree"
)

// FuzzSnapshotRead feeds truncated, bit-flipped and arbitrary bytes to
// ReadSnapshot. The reader must either accept the input or return an error
// that unwraps to *FormatError — never panic — and the chunked decoder
// bounds read-ahead allocation to decodeChunk, so a forged header asking
// for gigabytes of nodes fails on truncation instead of exhausting memory.
func FuzzSnapshotRead(f *testing.F) {
	var seeds [][]byte
	for _, src := range []string{
		`<a/>`,
		`<a>x<b/>y<b>z</b></a>`,
		`<r><a><b><c>deep text</c></b></a><a/><a>tail</a></r>`,
	} {
		d, err := xmltree.ParseString(src)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := FromTree(d).WriteSnapshot(&buf); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)/2]) // truncated mid-columns
		f.Add(s[:len(s)-2]) // truncated checksum trailer
		flip := bytes.Clone(s)
		flip[len(flip)/3] ^= 0x40 // bit flip inside the hashed region
		f.Add(flip)
	}
	f.Add([]byte{})
	f.Add([]byte("SMOQSNAP"))
	// A forged header demanding ~10^9 nodes from a 28-byte file: must fail
	// fast on truncation, not allocate 4 GiB of column.
	forged := append([]byte("SMOQSNAP"),
		1, 0, 0, 0, // version
		0xff, 0xff, 0xff, 0x3f, // numNodes just under the cap
		0, 0, 0, 0, // numLabels
		0, 0, 0, 0, // arenaLen
		0, 0, 0, 0) // labelsLen
	f.Add(forged)
	f.Fuzz(func(t *testing.T, data []byte) {
		cd, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("ReadSnapshot returned an untyped error: %v", err)
			}
			return
		}
		// Whatever the reader accepts must re-encode deterministically and
		// survive a second round trip byte-identically.
		var once bytes.Buffer
		if err := cd.WriteSnapshot(&once); err != nil {
			t.Fatalf("rewriting accepted snapshot: %v", err)
		}
		again, err := ReadSnapshot(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-reading rewritten snapshot: %v", err)
		}
		var twice bytes.Buffer
		if err := again.WriteSnapshot(&twice); err != nil {
			t.Fatalf("rewriting twice: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("accepted snapshot is not canonical: re-encodings differ")
		}
	})
}

// FuzzDecodeMatchesTree holds Decode's column builder to FromTree over
// xmltree.ParseWithLimits, the tree built from the same walk: for any
// input and limits both fail with the same error, or both accept and
// write byte-identical snapshots. The seeds are xmltree's XML fuzz seeds.
func FuzzDecodeMatchesTree(f *testing.F) {
	for _, s := range []string{
		"<a/>", "<a><b>x</b><c/></a>", "<a>x<b/>y</a>",
		"<a", "</a>", "<a></b>", "<a/><b/>", "text",
		"<a>&amp;&lt;&gt;</a>", "<a \xff='1'/>", "<a><![CDATA[x]]></a>",
		"<?xml version='1.0'?><a/>", "<a>x&#13;y</a>", "<a>cr\rlf\nend</a>",
		"<a>x<!--c--> <!--c-->y</a>", "<a> <!--c-->x</a>", "<a><b>x<c/></b><d/></a>",
		"<p:a></q:a>", "<p:a></a>", "<a></p:a>", "<a/></a>", "<a><b>", "<a>x",
		"<a>&foo;</a>", "\ufeff<a/>", "<a>\n<b>\n</a>",
	} {
		f.Add(s, 0, 0, int64(0))
	}
	// Documents exactly at each limit, and one past it.
	at := "<a><b>x</b>y<c><d/></c></a>"
	for _, k := range []int{0, 1} {
		f.Add(at, 3-k, 0, int64(0))
		f.Add(at, 0, 6-k, int64(0))
		f.Add(at, 0, 0, int64(len(at)-k))
	}
	f.Fuzz(func(t *testing.T, src string, depth, nodes int, maxBytes int64) {
		lim := xmltree.ParseLimits{MaxDepth: depth, MaxNodes: nodes, MaxBytes: maxBytes}
		cd, gerr := Decode(strings.NewReader(src), false, lim)
		d, werr := xmltree.ParseStringWithLimits(src, lim)
		if gerr != nil || werr != nil {
			if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("%q under %+v: Decode error %v, tree error %v", src, lim, gerr, werr)
			}
			return
		}
		var got, want bytes.Buffer
		if err := cd.WriteSnapshot(&got); err != nil {
			t.Fatal(err)
		}
		if err := FromTree(d).WriteSnapshot(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%q under %+v: Decode's snapshot differs from the tree's", src, lim)
		}
	})
}
