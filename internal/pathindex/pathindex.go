// Package pathindex provides the structural secondary index over
// documents: a path summary (DataGuide) over element label paths, with
// per-path cardinalities and document-ordered node lists.
//
// The summary answers the structural skeleton of a query without touching
// the document: it turns a chain of child/descendant steps from the
// document root into an exact set of label paths whose node lists are the
// answer. The code generator consults it to replace axis navigation with a
// PathIndexScan when the summary's cardinality estimates say the index is
// cheaper (match.go).
//
// Node identifiers are assigned in document order when a document is built,
// so a path's node list, kept in NodeID order, is in document order.
package pathindex

import (
	"sync"

	"natix/internal/dom"
)

// Path is one entry of the path summary: a distinct label path from the
// document root to an element, with every node that instance-matches it.
type Path struct {
	// Parent is the index of the parent path, or -1 for the document path
	// (paths[0], the document node itself).
	Parent int32
	// URI and Local are the expanded element name of the path's last label.
	// Empty for the document path.
	URI, Local string
	// Nodes lists the elements matching this path in document order.
	Nodes []dom.NodeID
	// Others counts the non-element child-list nodes (text, comments,
	// processing instructions) directly under nodes of this path. An axis
	// walk enumerates them even though no name test matches them, so the
	// walk-cost estimate charges for them.
	Others int64
}

// Index is the structural index of one document. It is immutable after
// Build/Decode except for the match memo (Match), which is internally
// synchronized, so an Index may be shared across concurrent executions.
type Index struct {
	nodeCount int
	paths     []Path
	// subCount[i] is the total element count of paths strictly below path i
	// in the summary; subOther[i] the analogous non-element child count.
	// Derived (build and decode), not serialized.
	subCount []int64
	subOther []int64

	// memo caches Match results, refusals included (nil), keyed by
	// ChainKey; at most memoCap entries. mu guards it.
	mu   sync.Mutex
	memo map[string]*Match
}

// Build constructs the index for a document with one walk over element
// child lists. Elements get their path's node list in document order; every
// other child-list node only counts towards its parent path's Others.
// Attribute and namespace nodes are not on any child list and are never
// visited.
func Build(d dom.Document) *Index {
	ix := &Index{nodeCount: d.NodeCount()}
	childPath := map[childKey]int32{}

	root := d.Root()
	ix.paths = append(ix.paths, Path{Parent: -1, Nodes: []dom.NodeID{root}})

	type frame struct {
		path int32
		next dom.NodeID
	}
	stack := []frame{{path: 0, next: d.FirstChild(root)}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next == dom.NilNode {
			stack = stack[:len(stack)-1]
			continue
		}
		id := f.next
		f.next = d.NextSibling(id)
		if d.Kind(id) != dom.KindElement {
			ix.paths[f.path].Others++
			continue
		}
		key := childKey{parent: f.path, uri: d.NamespaceURI(id), local: d.LocalName(id)}
		pid, ok := childPath[key]
		if !ok {
			pid = int32(len(ix.paths))
			ix.paths = append(ix.paths, Path{Parent: f.path, URI: key.uri, Local: key.local})
			childPath[key] = pid
		}
		ix.paths[pid].Nodes = append(ix.paths[pid].Nodes, id)
		stack = append(stack, frame{path: pid, next: d.FirstChild(id)})
	}
	ix.deriveSubtreeCounts()
	return ix
}

type childKey struct {
	parent     int32
	uri, local string
}

// deriveSubtreeCounts fills subCount/subOther from the per-path figures.
// Paths are created in traversal pre-order, so every parent index precedes
// its children and one reverse sweep accumulates whole subtrees.
func (ix *Index) deriveSubtreeCounts() {
	ix.subCount = make([]int64, len(ix.paths))
	ix.subOther = make([]int64, len(ix.paths))
	for i := len(ix.paths) - 1; i >= 1; i-- {
		p := ix.paths[i].Parent
		ix.subCount[p] += ix.subCount[i] + int64(len(ix.paths[i].Nodes))
		ix.subOther[p] += ix.subOther[i] + ix.paths[i].Others
	}
}

// NodeCount returns the node count of the indexed document.
func (ix *Index) NodeCount() int { return ix.nodeCount }

// PathCount returns the number of summary paths, including the document
// path at index 0.
func (ix *Index) PathCount() int { return len(ix.paths) }
