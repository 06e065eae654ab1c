package corpus

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"smoqe/internal/colstore"
	"smoqe/internal/failpoint"
	"smoqe/internal/guard"
	"smoqe/internal/hype"
	"smoqe/internal/trace"
	"smoqe/internal/xmltree"
)

// Status is a document's lifecycle state. Only indexed documents are
// served; pending documents are awaiting a retry on the next scan;
// quarantined documents failed validation and are never answered from
// until a file change or an explicit reindex clears them.
type Status string

const (
	StatusIndexed     Status = "indexed"
	StatusPending     Status = "pending"
	StatusQuarantined Status = "quarantined"
)

// Document file extensions a collection serves.
const (
	extXML      = ".xml"
	extSnapshot = ".smoqe-snapshot"
)

// ErrReindexInProgress reports a manual reindex request that found a scan
// already running for the collection; callers retry after a scan interval.
var ErrReindexInProgress = errors.New("corpus: reindex already in progress")

// ErrUnknownCollection reports a request naming no collection of the
// corpus.
var ErrUnknownCollection = errors.New("corpus: unknown collection")

// quarantineError marks a validation failure as permanent: no retries, the
// document goes straight to quarantine.
type quarantineError struct {
	reason string
}

func (e *quarantineError) Error() string { return e.reason }

// maxRetries bounds transient retries per file change: the failure after
// the third retry quarantines the document.
const maxRetries = 3

// staleScans is how many scan intervals may pass without a completed scan
// before a collection is stale. Stale collections keep serving their last
// good generation, flagged as degraded.
const staleScans = 3

// Options tunes a Manager. The zero value is usable; zero fields take the
// defaults documented on each.
type Options struct {
	// ScanInterval is the background rescan period (default 2s). It also
	// paces retries: a document whose indexing failed is retried on the
	// next scan.
	ScanInterval time.Duration
	// ParseLimits bounds the documents admitted into the corpus: XML as
	// it is parsed, snapshots by depth and node count once read.
	ParseLimits xmltree.ParseLimits
	// Logf receives operational messages (quarantines, manifest recovery
	// fallbacks). Nil means silent.
	Logf func(format string, args ...any)
	// OnScan is invoked after every completed collection scan with the
	// post-scan snapshot and the scan duration; the serving layer hangs
	// metrics off it. Nil means no callback.
	OnScan func(info CollectionInfo, elapsed time.Duration)
	// Now is the clock seam (default time.Now).
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.ScanInterval <= 0 {
		o.ScanInterval = 2 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Doc is one document's in-memory record. Docs are immutable snapshots:
// the indexer replaces the whole value on change, so readers may hold one
// across a scan without locking.
type Doc struct {
	// Name is the file name, extension included (it is the identity — two
	// files differing only in extension are two documents).
	Name   string
	Status Status
	// Reason explains a quarantine or pending-retry state.
	Reason string
	// Retries counts transient failures since the last successful index
	// or file change.
	Retries int
	// Size, MtimeNS and CRC identify the validated file content; a
	// matching size+mtime with a differing CRC quarantines the document
	// (silent corruption).
	Size    int64
	MtimeNS int64
	CRC     uint32
	// Fingerprint drives corpus-level prefiltering (indexed docs only).
	Fingerprint hype.Fingerprint
	// Col is the document's one in-memory form, columnar (indexed docs
	// only): XML files are parsed and converted, snapshots are used as
	// read. Its preorder ids are the ids answers report.
	Col *colstore.Document
}

// CollectionInfo is a point-in-time summary of one collection.
type CollectionInfo struct {
	Name        string    `json:"name"`
	Generation  uint64    `json:"generation"`
	Indexed     int       `json:"indexed"`
	Pending     int       `json:"pending"`
	Quarantined int       `json:"quarantined"`
	Stale       bool      `json:"stale"`
	LastScan    time.Time `json:"last_scan"`
}

// Degraded reports whether some document is quarantined or the index is
// stale. A degraded collection keeps serving its last good generation.
func (ci CollectionInfo) Degraded() bool { return ci.Quarantined > 0 || ci.Stale }

// Collection is one directory of documents plus its manifest state.
type Collection struct {
	name string
	dir  string

	mu         sync.RWMutex
	docs       map[string]*Doc // guarded by mu; keyed by Doc.Name
	generation uint64          // guarded by mu; bumped on every state change
	lastScan   time.Time       // guarded by mu; completion time of the last scan
	scanning   bool            // guarded by mu; one scan at a time per collection
	dirty      bool            // guarded by mu; in-memory state newer than the durable manifest
}

// Manager owns a corpus root directory: every immediate subdirectory is a
// collection. Open recovers durable state and indexes synchronously;
// Start adds the background rescan loop.
type Manager struct {
	dir string
	opt Options

	mu   sync.RWMutex
	cols map[string]*Collection // guarded by mu; keyed by collection name

	startOnce sync.Once
	cancel    context.CancelFunc // guarded by mu; set once by Start
	wg        sync.WaitGroup
	started   bool // guarded by mu; set by Start, read by Info for staleness
}

// Open recovers every collection under dir from its newest consistent
// manifest generation and runs one synchronous scan, so a successful Open
// means the corpus is immediately serveable: every document is either
// indexed or quarantined, and the manifests on disk reflect it.
func Open(ctx context.Context, dir string, opt Options) (*Manager, error) {
	fi, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("corpus: %s is not a directory", dir)
	}
	m := &Manager{dir: dir, opt: opt.withDefaults(), cols: make(map[string]*Collection)}
	if err := m.scanAll(ctx); err != nil {
		return nil, err
	}
	return m, nil
}

// Start launches the background rescan loop. The loop stops when ctx is
// cancelled or Close is called; Close (or Wait after cancelling ctx)
// drains it.
func (m *Manager) Start(ctx context.Context) {
	m.startOnce.Do(func() {
		loopCtx, cancel := context.WithCancel(ctx)
		m.mu.Lock()
		m.cancel = cancel
		m.started = true
		m.mu.Unlock()
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			guard.Protect("corpus.loop", func() error {
				m.loop(loopCtx)
				return nil
			})
		}()
	})
}

// Close stops the background loop (if any) and waits for it to drain.
func (m *Manager) Close() {
	m.mu.RLock()
	cancel := m.cancel
	m.mu.RUnlock()
	if cancel != nil {
		cancel()
	}
	m.wg.Wait()
}

// Wait blocks until the background loop has drained (after its context is
// cancelled).
func (m *Manager) Wait() { m.wg.Wait() }

// ScanInterval returns the effective background rescan period, default
// applied — the backoff a caller that lost a reindex race should wait.
func (m *Manager) ScanInterval() time.Duration { return m.opt.ScanInterval }

// loop is the background indexer: one full rescan per tick.
func (m *Manager) loop(ctx context.Context) {
	t := time.NewTicker(m.opt.ScanInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := m.scanAll(ctx); err != nil {
				m.opt.Logf("corpus: scan: %v", err)
			}
		}
	}
}

// Collections returns the sorted collection names.
func (m *Manager) Collections() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, 0, len(m.cols))
	for name := range m.cols {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Collection returns one collection by name.
func (m *Manager) Collection(name string) (*Collection, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c, ok := m.cols[name]
	return c, ok
}

// Infos returns a snapshot of every collection, sorted by name.
func (m *Manager) Infos() []CollectionInfo {
	m.mu.RLock()
	cols := make([]*Collection, 0, len(m.cols))
	for _, c := range m.cols {
		cols = append(cols, c)
	}
	m.mu.RUnlock()
	infos := make([]CollectionInfo, 0, len(cols))
	for _, c := range cols {
		infos = append(infos, m.Info(c))
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// Info snapshots one collection's counters.
func (m *Manager) Info(c *Collection) CollectionInfo {
	m.mu.RLock()
	started := m.started
	m.mu.RUnlock()
	c.mu.RLock()
	defer c.mu.RUnlock()
	info := CollectionInfo{
		Name:       c.name,
		Generation: c.generation,
		LastScan:   c.lastScan,
	}
	for _, d := range c.docs {
		switch d.Status {
		case StatusIndexed:
			info.Indexed++
		case StatusQuarantined:
			info.Quarantined++
		default:
			info.Pending++
		}
	}
	// A corpus without a background loop is only as fresh as its last
	// explicit scan; staleness is not meaningful there.
	if started && m.opt.Now().Sub(c.lastScan) > staleScans*m.opt.ScanInterval {
		info.Stale = true
	}
	return info
}

// Docs returns the collection's document records sorted by name, filtered
// to the given statuses (all statuses when none are given). The returned
// Docs are immutable snapshots safe to use without locks.
func (c *Collection) Docs(statuses ...Status) []*Doc {
	c.mu.RLock()
	defer c.mu.RUnlock()
	docs := make([]*Doc, 0, len(c.docs))
	for _, d := range c.docs {
		if len(statuses) > 0 {
			keep := false
			for _, s := range statuses {
				if d.Status == s {
					keep = true
					break
				}
			}
			if !keep {
				continue
			}
		}
		docs = append(docs, d)
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].Name < docs[j].Name })
	return docs
}

// Generation returns the collection's current generation.
func (c *Collection) Generation() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.generation
}

// Name returns the collection's name (its directory base name).
func (c *Collection) Name() string { return c.name }

// Reindex runs one synchronous scan of the named collection with all
// quarantines and retry budgets cleared — the manual escape hatch after an
// operator fixes files in place. It returns ErrReindexInProgress when a
// scan is already running.
func (m *Manager) Reindex(ctx context.Context, name string) (CollectionInfo, error) {
	c, ok := m.Collection(name)
	if !ok {
		return CollectionInfo{}, fmt.Errorf("%w %q", ErrUnknownCollection, name)
	}
	c.mu.Lock()
	if c.scanning {
		c.mu.Unlock()
		return CollectionInfo{}, ErrReindexInProgress
	}
	c.scanning = true
	// Forget every record so the scan revalidates from scratch. State
	// changes bump the generation as usual.
	c.docs = make(map[string]*Doc)
	c.dirty = true
	c.mu.Unlock()
	m.scanCollection(ctx, c, true)
	return m.Info(c), nil
}

// scanAll discovers collections (one per subdirectory) and scans each.
func (m *Manager) scanAll(ctx context.Context) error {
	if err := failpoint.Inject(failpoint.SiteCorpusScan); err != nil {
		return err
	}
	ents, err := os.ReadDir(m.dir)
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	live := make(map[string]bool)
	var scan []*Collection
	m.mu.Lock()
	for _, ent := range ents {
		if !ent.IsDir() || strings.HasPrefix(ent.Name(), ".") {
			continue
		}
		name := ent.Name()
		live[name] = true
		c, ok := m.cols[name]
		if !ok {
			c = m.recoverCollection(name)
			m.cols[name] = c
		}
		scan = append(scan, c)
	}
	for name := range m.cols {
		if !live[name] {
			delete(m.cols, name)
		}
	}
	m.mu.Unlock()
	sort.Slice(scan, func(i, j int) bool { return scan[i].name < scan[j].name })
	for _, c := range scan {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		c.mu.Lock()
		if c.scanning {
			c.mu.Unlock()
			continue
		}
		c.scanning = true
		c.mu.Unlock()
		m.scanCollection(ctx, c, false)
	}
	return nil
}

// recoverCollection loads a newly discovered collection's durable state
// from its newest consistent manifest. The records are advisory: the next
// scan revalidates every file; only quarantine verdicts for byte-identical
// files are trusted without re-reading. Caller holds m.mu.
func (m *Manager) recoverCollection(name string) *Collection {
	dir := filepath.Join(m.dir, name)
	gen, mdocs, skipped := recoverManifest(dir)
	for _, err := range skipped {
		m.opt.Logf("corpus: %s: recovery skipped inconsistent manifest: %v", name, err)
	}
	docs := make(map[string]*Doc, len(mdocs))
	for _, md := range mdocs {
		st := Status(md.Status)
		switch st {
		case StatusIndexed, StatusPending, StatusQuarantined:
		default:
			st = StatusPending
		}
		// Indexed records come back without a document; the scan
		// revalidates them (and checks the stored CRC) before anything is
		// served.
		docs[md.File] = &Doc{
			Name:    md.File,
			Status:  st,
			Reason:  md.Reason,
			Retries: md.Retries,
			Size:    md.Size,
			MtimeNS: md.MtimeNS,
			CRC:     md.CRC,
		}
	}
	return &Collection{name: name, dir: dir, docs: docs, generation: gen}
}

// scanCollection revalidates one collection: stat every eligible file,
// (re)index what changed or is pending a retry, drop records of deleted
// files, and publish a new manifest generation when anything moved.
// The caller must have set c.scanning; scanCollection clears it.
func (m *Manager) scanCollection(ctx context.Context, c *Collection, force bool) {
	start := m.opt.Now()
	sctx, sp := trace.Start(ctx, "corpus.scan")
	defer sp.End()
	sp.Attr("collection", c.name)
	changed := m.scanDocs(sctx, c, force)

	c.mu.Lock()
	if changed {
		c.generation++
		c.dirty = true
	}
	gen := c.generation
	var mdocs []manifestDoc
	if c.dirty {
		mdocs = make([]manifestDoc, 0, len(c.docs))
		for _, d := range c.docs {
			mdocs = append(mdocs, toManifestDoc(d))
		}
	}
	c.mu.Unlock()

	if mdocs != nil {
		err := writeManifest(c.dir, gen, mdocs)
		c.mu.Lock()
		if err != nil {
			// In-memory state stays authoritative; the durable manifest
			// lags until a later scan's write succeeds. Recovery then
			// falls back to the last consistent generation.
			m.opt.Logf("corpus: %s: %v", c.name, err)
		} else if c.generation == gen {
			c.dirty = false
		}
		c.mu.Unlock()
		sp.Error(err)
	}

	now := m.opt.Now()
	c.mu.Lock()
	c.lastScan = now
	c.scanning = false
	c.mu.Unlock()
	if m.opt.OnScan != nil {
		m.opt.OnScan(m.Info(c), now.Sub(start))
	}
}

// scanDocs is scanCollection's document pass; it reports whether any
// record changed.
func (m *Manager) scanDocs(ctx context.Context, c *Collection, force bool) bool {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		m.opt.Logf("corpus: %s: %v", c.name, err)
		return false
	}
	changed := false
	live := make(map[string]bool)
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || strings.HasPrefix(name, ".") {
			continue
		}
		ext := filepath.Ext(name)
		if ext != extXML && ext != extSnapshot {
			continue
		}
		if ctx != nil && ctx.Err() != nil {
			return changed
		}
		live[name] = true
		fi, err := ent.Info()
		if err != nil {
			// Raced with a delete; the next scan settles it.
			continue
		}
		c.mu.RLock()
		prev := c.docs[name]
		c.mu.RUnlock()
		next := m.checkDoc(ctx, c, name, fi, prev, force)
		if next == nil {
			continue
		}
		c.mu.Lock()
		c.docs[name] = next
		c.mu.Unlock()
		// Revalidating an unchanged file (the restart path: recovered
		// records carry no document) is not a state change — the
		// generation only moves when a durable field moves.
		if !docEquivalent(prev, next) {
			changed = true
		}
	}
	c.mu.Lock()
	for name := range c.docs {
		if !live[name] {
			delete(c.docs, name)
			changed = true
		}
	}
	c.mu.Unlock()
	return changed
}

// checkDoc decides one document's fate for this scan: nil means the
// existing record stands; otherwise the returned record replaces it.
func (m *Manager) checkDoc(ctx context.Context, c *Collection, name string, fi fs.FileInfo, prev *Doc, force bool) *Doc {
	same := prev != nil && prev.Size == fi.Size() && prev.MtimeNS == fi.ModTime().UnixNano()
	if same && !force {
		switch prev.Status {
		case StatusIndexed:
			if prev.Col != nil {
				return nil // unchanged and serveable
			}
			// Recovered from a manifest: revalidate to load the document.
		case StatusQuarantined:
			// The verdict stands until the file changes (size/mtime) or an
			// explicit reindex forces revalidation.
			return nil
		}
	}
	retries := 0
	if same && prev != nil && !force {
		retries = prev.Retries
	}
	doc, err := m.indexDoc(ctx, c, name, fi, prev)
	if err == nil {
		doc.Retries = 0
		return doc
	}
	var qe *quarantineError
	if errors.As(err, &qe) || retries >= maxRetries {
		m.opt.Logf("corpus: %s/%s quarantined: %v", c.name, name, err)
		return &Doc{
			Name: name, Status: StatusQuarantined, Reason: err.Error(),
			Retries: retries, Size: fi.Size(), MtimeNS: fi.ModTime().UnixNano(),
			CRC: crcOf(prev),
		}
	}
	m.opt.Logf("corpus: %s/%s index attempt %d failed (will retry): %v", c.name, name, retries+1, err)
	return &Doc{
		Name: name, Status: StatusPending, Reason: err.Error(),
		Retries: retries + 1, Size: fi.Size(), MtimeNS: fi.ModTime().UnixNano(),
		CRC: crcOf(prev),
	}
}

// docEquivalent compares the durable fields of two records; equivalence
// means the manifest would not change.
func docEquivalent(prev, next *Doc) bool {
	return prev != nil && next != nil &&
		prev.Status == next.Status && prev.Reason == next.Reason &&
		prev.Retries == next.Retries && prev.Size == next.Size &&
		prev.MtimeNS == next.MtimeNS && prev.CRC == next.CRC
}

func crcOf(prev *Doc) uint32 {
	if prev == nil {
		return 0
	}
	return prev.CRC
}

// indexDoc validates and indexes one file: size, read, checksum, parse,
// fingerprint. Failures are quarantineErrors when the bytes themselves are
// bad (parse failure, checksum mismatch) and plain errors when the attempt
// itself failed (I/O, injected faults) — the latter are retried.
func (m *Manager) indexDoc(ctx context.Context, c *Collection, name string, fi fs.FileInfo, prev *Doc) (*Doc, error) {
	_, sp := trace.Start(ctx, "corpus.index.doc")
	defer sp.End()
	sp.Attr("doc", name)
	if err := failpoint.Inject(failpoint.SiteCorpusIndexDoc); err != nil {
		sp.Error(err)
		return nil, err
	}
	if lim := m.opt.ParseLimits.MaxBytes; lim > 0 && fi.Size() > lim && filepath.Ext(name) != extSnapshot {
		// Refused from its size, unread, with the text the decoder gives
		// a document over the byte cap. A snapshot has no byte cap.
		err := &quarantineError{reason: "parse: xmltree: parse: " +
			(&xmltree.LimitError{What: xmltree.LimitBytes, Limit: lim}).Error()}
		sp.Error(err)
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(c.dir, name))
	if err != nil {
		sp.Error(err)
		return nil, err
	}
	crc := crc32.ChecksumIEEE(data)
	if prev != nil && prev.CRC != 0 && prev.Size == fi.Size() &&
		prev.MtimeNS == fi.ModTime().UnixNano() && prev.CRC != crc {
		err := &quarantineError{reason: "checksum mismatch (content changed without size/mtime)"}
		sp.Error(err)
		return nil, err
	}
	cd, err := parseDoc(name, data, m.opt.ParseLimits)
	if err != nil {
		sp.Error(err)
		return nil, err
	}
	return &Doc{
		Name:        name,
		Status:      StatusIndexed,
		Size:        fi.Size(),
		MtimeNS:     fi.ModTime().UnixNano(),
		CRC:         crc,
		Fingerprint: hype.FingerprintDoc(cd),
		Col:         cd,
	}, nil
}

// parseDoc decodes one document with colstore.Decode under lim, as a
// snapshot when the name carries the snapshot extension and as XML
// otherwise (the scan admits no other), and maps the decoder's error:
// malformed or over-limit content is a permanent quarantineError; only an
// injected fault, not a property of the bytes, stays retryable.
func parseDoc(name string, data []byte, lim xmltree.ParseLimits) (*colstore.Document, error) {
	snapshot := filepath.Ext(name) == extSnapshot
	cd, err := colstore.Decode(bytes.NewReader(data), snapshot, lim)
	if err != nil {
		var fe *failpoint.Error
		if errors.As(err, &fe) {
			return nil, err
		}
		prefix := "parse: "
		if snapshot {
			prefix = "snapshot: "
		}
		return nil, &quarantineError{reason: prefix + err.Error()}
	}
	return cd, nil
}

// toManifestDoc converts an in-memory record to its durable form.
func toManifestDoc(d *Doc) manifestDoc {
	return manifestDoc{
		File:    d.Name,
		Size:    d.Size,
		MtimeNS: d.MtimeNS,
		CRC:     d.CRC,
		Status:  string(d.Status),
		Reason:  d.Reason,
		Retries: d.Retries,
	}
}
