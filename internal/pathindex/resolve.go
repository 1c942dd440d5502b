// Index resolution. Documents that manage their own index persistence (the
// paged store) implement Provider; an in-memory document holds a lazily
// built index of its own, so the index goes when the document does.
package pathindex

import "natix/internal/dom"

// Provider is implemented by documents that own their structural index
// (store.Doc loads it from the persisted index pages). PathIndex may return
// nil when the index cannot be produced (e.g. a faulted store document);
// callers fall back to axis navigation.
type Provider interface {
	PathIndex() *Index
}

// For returns the structural index for a document: the document's own
// (Provider), or for a MemDoc the one it caches, built on first use. Never
// returns an index for a different document.
func For(d dom.Document) *Index {
	switch d := d.(type) {
	case Provider:
		return d.PathIndex()
	case *dom.MemDoc:
		return d.CachedIndex(buildMem).(*Index)
	}
	return nil
}

func buildMem(d *dom.MemDoc) any { return Build(d) }
