package dom

import "sync/atomic"

// idMapBuilds counts BuildIDMap calls.
var idMapBuilds atomic.Int64

// IDMapBuilds returns how many ID maps this process has built, so tests
// can check that a document builds its map once, however many plans and
// goroutines ask.
func IDMapBuilds() int64 { return idMapBuilds.Load() }

// BuildIDMap scans d once and maps every ID value to the first element, in
// document order, that carries it. The engine treats attributes named "id"
// (in no namespace) as ID-typed, matching the paper's generated documents;
// see DESIGN.md "Known deviations". Document implementations build their
// ElementByID map with it, once per document.
func BuildIDMap(d Document) map[string]NodeID {
	idMapBuilds.Add(1)
	m := make(map[string]NodeID)
	n := NodeID(d.NodeCount())
	for id := NodeID(1); id <= n; id++ {
		if d.Kind(id) != KindElement {
			continue
		}
		for a := d.FirstAttr(id); a != NilNode; a = d.NextAttr(a) {
			if d.LocalName(a) == "id" && d.NamespaceURI(a) == "" {
				if _, dup := m[d.Value(a)]; !dup {
					m[d.Value(a)] = id // first element wins, per spec
				}
			}
		}
	}
	return m
}
