// Package server is the thread-safe serving layer of SMOQE: a registry of
// documents and views, an LRU cache of prepared query plans, and an
// HTTP/JSON front end (see cmd/smoqed). It turns the library's
// parse → rewrite → compile → evaluate pipeline into a multi-tenant query
// service: many user groups fire rewritten queries at shared source
// documents (the paper's §1 access-control scenario), the expensive
// rewrite runs once per distinct (view, query) pair, and evaluation runs
// concurrently on pooled engine clones.
package server

import (
	"errors"
	"fmt"
	"sync"

	"smoqe"
	"smoqe/internal/colstore"
)

// DocEntry is one registered document. It holds one in-memory form, the
// columnar document, which no caller shares: documents registered as trees
// are converted on registration (copy-on-register), and snapshots are used
// as read. Registration and evaluation can therefore never race on shared
// nodes. The OptHyPE-C subtree index is built lazily on first indexed use
// and then shared by every engine clone.
type DocEntry struct {
	Name  string
	Stats smoqe.DocumentStats
	// Col is the document, immutable and shared by every evaluation.
	// Response ids are its preorder ids, which equal the Node IDs of a
	// parsed document.
	Col *smoqe.ColumnarDocument

	// depth is Col's element nesting (colstore.ElementDepth), the figure
	// ParseLimits.MaxDepth bounds.
	depth int

	once sync.Once
	idx  *smoqe.Index
}

// Index returns the document's OptHyPE-C subtree index, building it on
// first use. Safe for concurrent callers; the index is immutable once
// built.
func (e *DocEntry) Index() *smoqe.Index {
	e.once.Do(func() { e.idx = smoqe.BuildIndex(e.Col) })
	return e.idx
}

// ViewEntry is one registered view. Views are effectively immutable after
// parsing; the entry copies the top-level structure on registration so a
// caller mutating its View afterwards cannot affect the server.
type ViewEntry struct {
	Name string
	View *smoqe.View
	// Gen is unique per registration. Plans are cached under it, so a plan
	// rewritten over a replaced definition never answers for the new one,
	// even when its build finishes after the swap.
	Gen uint64
}

// Registry holds the documents and views the server can answer queries
// against. All methods are safe for concurrent use. Outside bytes reach it
// decoded, through Server.LoadDocument; views through Server.RegisterView.
type Registry struct {
	mu sync.RWMutex
	// docs is guarded by mu.
	docs map[string]*DocEntry
	// views is guarded by mu.
	views   map[string]*ViewEntry
	viewGen uint64 // guarded by mu; the last ViewEntry.Gen handed out
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		docs:  make(map[string]*DocEntry),
		views: make(map[string]*ViewEntry),
	}
}

// errNoDocName refuses a document registered without a name.
var errNoDocName = errors.New("server: document name must not be empty")

// Register stores the decoded document cd under name, replacing any
// previous document with that name. The caller must not retain cd.
func (r *Registry) Register(name string, cd *smoqe.ColumnarDocument) (*DocEntry, error) {
	if name == "" {
		return nil, errNoDocName
	}
	entry := &DocEntry{Name: name, Stats: cd.Stats(), Col: cd, depth: colstore.ElementDepth(cd)}
	r.mu.Lock()
	r.docs[name] = entry
	r.mu.Unlock()
	return entry, nil
}

// RegisterDocument stores the columnar form of doc under name (see
// Register). The conversion is the copy: the registry keeps nothing of doc.
func (r *Registry) RegisterDocument(name string, doc *smoqe.Document) (*DocEntry, error) {
	if doc == nil || doc.Root == nil {
		return nil, fmt.Errorf("server: document %q is empty", name)
	}
	return r.Register(name, smoqe.BuildColumnar(doc))
}

// registerView stores v under name, replacing any previous view with that
// name. The view's top-level structure is copied; the annotation queries
// themselves are immutable after parsing and are shared.
func (r *Registry) registerView(name string, v *smoqe.View) (*ViewEntry, error) {
	if name == "" {
		return nil, fmt.Errorf("server: view name must not be empty")
	}
	if v == nil {
		return nil, fmt.Errorf("server: view %q is nil", name)
	}
	cp := *v
	cp.Ann = make(map[smoqe.ViewEdge]smoqe.Query, len(v.Ann))
	for e, q := range v.Ann {
		cp.Ann[e] = q
	}
	entry := &ViewEntry{Name: name, View: &cp}
	r.mu.Lock()
	r.viewGen++
	entry.Gen = r.viewGen
	r.views[name] = entry
	r.mu.Unlock()
	return entry, nil
}

// Document returns the entry registered under name.
func (r *Registry) Document(name string) (*DocEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.docs[name]
	return e, ok
}

// View returns the entry registered under name.
func (r *Registry) View(name string) (*ViewEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.views[name]
	return e, ok
}

// Documents returns the registered document entries (unordered).
func (r *Registry) Documents() []*DocEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*DocEntry, 0, len(r.docs))
	for _, e := range r.docs {
		out = append(out, e)
	}
	return out
}

// Views returns the registered view entries (unordered).
func (r *Registry) Views() []*ViewEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*ViewEntry, 0, len(r.views))
	for _, e := range r.views {
		out = append(out, e)
	}
	return out
}
