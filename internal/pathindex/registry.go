// Index resolution. Documents that manage their own index persistence (the
// paged store) implement Provider; everything else (MemDoc) gets a lazily
// built index from a process-wide registry keyed by DocID.
package pathindex

import (
	"sync"

	"natix/internal/dom"
)

// Provider is implemented by documents that own their structural index
// (store.Doc loads it from the persisted index pages). PathIndex may return
// nil when the index cannot be produced (e.g. a faulted store document);
// callers fall back to axis navigation.
type Provider interface {
	PathIndex() *Index
}

// Registry caches one Index per document, built on first use. Safe for
// concurrent use; the double-checked sync.Once ensures exactly one build
// per document even under races.
type Registry struct {
	mu   sync.RWMutex
	docs map[uint64]*regEntry
}

type regEntry struct {
	once sync.Once
	ix   *Index
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{docs: map[uint64]*regEntry{}}
}

// Global is the process-wide registry used by For.
var Global = NewRegistry()

// For returns the structural index for a document: the document's own
// (Provider) or the registry's, building it on first use. Never returns an
// index for a different document.
func (r *Registry) For(d dom.Document) *Index {
	if p, ok := d.(Provider); ok {
		return p.PathIndex()
	}
	key := d.DocID()
	r.mu.RLock()
	e := r.docs[key]
	r.mu.RUnlock()
	if e == nil {
		r.mu.Lock()
		e = r.docs[key]
		if e == nil {
			e = &regEntry{}
			r.docs[key] = e
		}
		r.mu.Unlock()
	}
	e.once.Do(func() { e.ix = Build(d) })
	return e.ix
}

// Drop forgets a document's cached index (document retirement).
func (r *Registry) Drop(docID uint64) {
	r.mu.Lock()
	delete(r.docs, docID)
	r.mu.Unlock()
}

// For resolves a document's index through the global registry.
func For(d dom.Document) *Index { return Global.For(d) }

// Drop forgets a document's cached index in the global registry.
func Drop(docID uint64) { Global.Drop(docID) }
