package colstore

import (
	"bytes"
	"testing"

	"smoqe/internal/datagen"
	"smoqe/internal/xmltree"
)

// Snapshot benchmarks answer the operational question behind the format:
// how much faster is loading a corpus from its binary snapshot than
// re-parsing the XML it came from?

func benchCorpus(b *testing.B) (*xmltree.Document, []byte, []byte) {
	b.Helper()
	doc := datagen.Generate(datagen.DefaultConfig(3000))
	var xml bytes.Buffer
	if err := doc.WriteXML(&xml, false); err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if err := FromTree(doc).WriteSnapshot(&snap); err != nil {
		b.Fatal(err)
	}
	return doc, xml.Bytes(), snap.Bytes()
}

func BenchmarkSnapshotWrite(b *testing.B) {
	doc, _, _ := benchCorpus(b)
	cd := FromTree(doc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := cd.WriteSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

func BenchmarkSnapshotRead(b *testing.B) {
	_, _, snap := benchCorpus(b)
	b.SetBytes(int64(len(snap)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadSnapshot(bytes.NewReader(snap)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotVsParse is the headline comparison: the same corpus
// loaded from XML (Decode, straight into columns, as every intake does)
// and from its snapshot.
func BenchmarkSnapshotVsParse(b *testing.B) {
	_, xml, snap := benchCorpus(b)
	b.Run("parse-xml", func(b *testing.B) {
		b.SetBytes(int64(len(xml)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Decode(bytes.NewReader(xml), false, xmltree.ParseLimits{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load-snapshot", func(b *testing.B) {
		b.SetBytes(int64(len(snap)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ReadSnapshot(bytes.NewReader(snap)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFromTree(b *testing.B) {
	doc, _, _ := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromTree(doc)
	}
}

// BenchmarkTree measures rebuilding the pointer tree from the columnar
// form: the cost of Tree(), which a caller that needs a tree (the CLI's
// snapshot load, the library) pays. A registered document, from XML or a
// snapshot, is never turned into a tree.
func BenchmarkTree(b *testing.B) {
	doc, _, _ := benchCorpus(b)
	cd := FromTree(doc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cd.Tree()
	}
}
