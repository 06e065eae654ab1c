package colstore

// Versioned binary snapshot of a columnar document, so a daemon loads a
// corpus in O(read) instead of re-parsing XML. Layout (all integers
// little-endian; full specification in docs/SNAPSHOT.md):
//
//	magic     "SMOQSNAP"                       8 bytes
//	version   uint32 (currently 1)
//	numNodes  uint32
//	numLabels uint32
//	arenaLen  uint32
//	labelsLen uint32   byte length of the label-table section
//	labels    numLabels × (uvarint length + bytes)
//	label     numNodes × int32   (-1 marks a text node)
//	end       numNodes × int32
//	textOff   numNodes × int32
//	textLen   numNodes × int32
//	arena     arenaLen bytes
//	checksum  uint32   CRC-32 (IEEE) of every preceding byte
//
// The derived columns (parent, depth, pos) are recomputed on load — they
// are functions of label and end — so a snapshot has exactly one byte
// representation per document and save→load→save round trips are
// byte-identical.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"

	"smoqe/internal/failpoint"
)

const (
	snapshotMagic   = "SMOQSNAP"
	snapshotVersion = 1
	// maxSnapshotCount caps the node, label and byte counts read from a
	// snapshot header so corrupted input cannot trigger huge allocations
	// before the checksum is even seen.
	maxSnapshotCount = 1 << 30
)

// FileExt is the conventional file extension for snapshot files; the
// daemon's -snapshot-dir scan loads every file carrying it.
const FileExt = ".smoqe-snapshot"

// FormatError reports a structurally invalid or corrupt snapshot: bad
// magic, truncation, forged counts, checksum mismatch, or an invariant
// violation in the decoded columns. Every ReadSnapshot failure other than
// an injected failpoint unwraps to one, so callers can tell corrupt input
// apart from environmental trouble with errors.As and quarantine the file
// rather than retry it.
type FormatError struct {
	Offset int64  // byte offset at which the problem was detected
	Reason string // human-readable description of the corruption
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("corrupt snapshot at byte %d: %s", e.Offset, e.Reason)
}

// WriteSnapshot serializes the document. The encoding is deterministic:
// the same document always produces the same bytes.
func (cd *Document) WriteSnapshot(w io.Writer) error {
	if err := failpoint.Inject(failpoint.SiteSnapshotWrite); err != nil {
		return fmt.Errorf("colstore: snapshot write: %w", err)
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	enc := &encoder{w: bw}
	enc.bytes([]byte(snapshotMagic))
	enc.u32(snapshotVersion)
	enc.u32(uint32(len(cd.label)))
	enc.u32(uint32(len(cd.labels)))
	enc.u32(uint32(len(cd.arena)))
	labelsLen := 0
	for _, l := range cd.labels {
		labelsLen += uvarintLen(uint64(len(l))) + len(l)
	}
	enc.u32(uint32(labelsLen))
	for _, l := range cd.labels {
		enc.uvarint(uint64(len(l)))
		enc.bytes([]byte(l))
	}
	enc.col(cd.label)
	enc.col(cd.end)
	enc.col(cd.textOff)
	enc.col(cd.textLen)
	enc.bytes([]byte(cd.arena))
	if enc.err != nil {
		return fmt.Errorf("colstore: snapshot write: %w", enc.err)
	}
	// The checksum covers everything buffered so far; flush before reading
	// the CRC state, then write the trailer past the hashed region.
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("colstore: snapshot write: %w", err)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("colstore: snapshot write: %w", err)
	}
	return nil
}

// ReadSnapshot deserializes a snapshot written by WriteSnapshot, verifying
// magic, version, structural invariants and the trailing checksum, and
// recomputing the derived parent/depth/pos columns.
func ReadSnapshot(r io.Reader) (*Document, error) {
	if err := failpoint.Inject(failpoint.SiteSnapshotRead); err != nil {
		return nil, fmt.Errorf("colstore: snapshot read: %w", err)
	}
	crc := crc32.NewIEEE()
	dec := &decoder{r: bufio.NewReader(r), crc: crc}
	if magic := dec.bytes(len(snapshotMagic)); dec.err == nil && string(magic) != snapshotMagic {
		dec.corrupt("bad magic %q", magic)
	}
	if v := dec.u32(); dec.err == nil && v != snapshotVersion {
		dec.corrupt("unsupported version %d (have %d)", v, snapshotVersion)
	}
	numNodes := dec.count()
	numLabels := dec.count()
	arenaLen := dec.count()
	labelsLen := dec.count()
	// numLabels is untrusted header data: size the map by a bounded hint so
	// a forged count cannot pre-allocate gigabytes of buckets; the decode
	// loop below grows it label by label as real input arrives.
	cd := &Document{labelIDs: make(map[string]int32, min(numLabels, decodeChunk/16))}
	before := dec.n
	for i := 0; i < numLabels && dec.err == nil; i++ {
		l := dec.string()
		if dec.err != nil {
			break
		}
		if l == "" {
			dec.corrupt("empty label %d", i)
			break
		}
		if _, dup := cd.labelIDs[l]; dup {
			dec.corrupt("duplicate label %q", l)
			break
		}
		cd.labelIDs[l] = int32(len(cd.labels))
		cd.labels = append(cd.labels, l)
	}
	if dec.err == nil && dec.n-before != labelsLen {
		dec.corrupt("label section is %d bytes, header says %d", dec.n-before, labelsLen)
	}
	cd.label = dec.col(numNodes)
	cd.end = dec.col(numNodes)
	cd.textOff = dec.col(numNodes)
	cd.textLen = dec.col(numNodes)
	cd.arena = string(dec.bytes(arenaLen))
	want := crc.Sum32() // trailer is outside the hashed region
	var sum [4]byte
	if dec.err == nil {
		if _, err := io.ReadFull(dec.r, sum[:]); err != nil {
			dec.corrupt("truncated checksum trailer (%v)", err)
		}
	}
	if dec.err != nil {
		return nil, fmt.Errorf("colstore: snapshot read: %w", dec.err)
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != want {
		dec.corrupt("checksum mismatch (stored %08x, computed %08x)", got, want)
		return nil, fmt.Errorf("colstore: snapshot read: %w", dec.err)
	}
	if err := cd.validate(); err != nil {
		dec.corrupt("%v", err)
		return nil, fmt.Errorf("colstore: snapshot read: %w", dec.err)
	}
	return cd, nil
}

// Save writes the snapshot to path (created or truncated).
func (cd *Document) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("colstore: snapshot save: %w", err)
	}
	if err := cd.WriteSnapshot(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("colstore: snapshot save: %w", err)
	}
	return nil
}

// Load reads a snapshot file written by Save.
func Load(path string) (*Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("colstore: snapshot load: %w", err)
	}
	defer f.Close()
	cd, err := ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("colstore: %s: %w", path, err)
	}
	return cd, nil
}

func uvarintLen(v uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], v)
}

type encoder struct {
	w   *bufio.Writer
	err error
	buf [binary.MaxVarintLen64]byte
}

func (e *encoder) bytes(b []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(b)
}

func (e *encoder) u32(v uint32) {
	binary.LittleEndian.PutUint32(e.buf[:4], v)
	e.bytes(e.buf[:4])
}

func (e *encoder) uvarint(v uint64) {
	n := binary.PutUvarint(e.buf[:], v)
	e.bytes(e.buf[:n])
}

// col writes an int32 column as fixed little-endian words.
func (e *encoder) col(c []int32) {
	for _, v := range c {
		e.u32(uint32(v))
	}
}

type decoder struct {
	r   *bufio.Reader
	crc hash.Hash32
	n   int // bytes consumed so far (for section-length checks)
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// corrupt records a FormatError at the current read offset.
func (d *decoder) corrupt(format string, args ...any) {
	d.fail(&FormatError{Offset: int64(d.n), Reason: fmt.Sprintf(format, args...)})
}

// decodeChunk bounds how much bytes allocates ahead of data actually read,
// so a forged header cannot demand gigabytes before truncation surfaces.
const decodeChunk = 1 << 16

// bytes reads an n-byte field. A truncated one is reported at the offset
// where the field starts, with the bytes of it that were read, so offset
// plus "have" is where the input ended.
func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	at := d.n
	b := make([]byte, 0, min(n, decodeChunk))
	for len(b) < n {
		c := min(n-len(b), decodeChunk)
		start := len(b)
		b = append(b, make([]byte, c)...)
		if got, err := io.ReadFull(d.r, b[start:]); err != nil {
			d.fail(&FormatError{Offset: int64(at),
				Reason: fmt.Sprintf("truncated input: want %d bytes, have %d (%v)", n, start+got, err)})
			return nil
		}
		d.crc.Write(b[start:])
		d.n += c
	}
	return b
}

func (d *decoder) u32() uint32 {
	b := d.bytes(4)
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// count reads a uint32 with the allocation-safety cap.
func (d *decoder) count() int {
	v := d.u32()
	if d.err == nil && v > maxSnapshotCount {
		d.corrupt("implausible count %d", v)
		return 0
	}
	return int(v)
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v := uint64(0)
	for shift := 0; ; shift += 7 {
		if shift >= 64 {
			d.corrupt("uvarint overflow")
			return 0
		}
		b := d.bytes(1)
		if d.err != nil {
			return 0
		}
		v |= uint64(b[0]&0x7f) << shift
		if b[0] < 0x80 {
			return v
		}
	}
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxSnapshotCount {
		d.corrupt("implausible string length %d", n)
		return ""
	}
	return string(d.bytes(int(n)))
}

// col reads an int32 column of n fixed little-endian words.
func (d *decoder) col(n int) []int32 {
	if d.err != nil {
		return nil
	}
	raw := d.bytes(4 * n)
	if d.err != nil {
		return nil
	}
	c := make([]int32, n)
	for i := range c {
		c[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return c
}
