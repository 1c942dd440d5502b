// Package pathindex provides structural secondary indexes over documents:
// a pre/post (interval) + level encoding per node, and a path summary
// (DataGuide) over element label paths with per-path cardinalities and
// document-ordered node lists.
//
// Together they answer the structural skeleton of a query without touching
// the document: the interval encoding decides ancestor/descendant
// relationships in O(1) (pre(x) < pre(y) and post(y) < post(x) iff x is an
// ancestor of y), and the path summary turns a chain of child/descendant
// steps from the document root into an exact set of label paths whose node
// lists are the answer. The code generator consults both to replace axis
// navigation with a PathIndexScan when the summary's cardinality estimates
// say the index is cheaper (match.go).
//
// Node identifiers are assigned in document order when a document is built,
// so the pre rank of a node IS its NodeID; only the post rank and the level
// are stored.
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
	// Depth is the number of labels on the path (0 for the document path).
	Depth int32
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
	// post and level are indexed by NodeID; slot 0 (the nil node) is unused.
	post  []uint32
	level []uint16

	paths []Path
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

// maxLevel saturates the stored level; documents nested deeper than 65535
// levels keep correct pre/post intervals, only the reported level clips.
const maxLevel = 1<<16 - 1

// Build constructs the index for a document with one traversal. Attribute
// and namespace nodes are visited as leaves before the element's children,
// matching NodeID assignment order, so interval containment holds for every
// node kind: an attribute's (pre, post) nests inside its element's interval
// and inside no sibling's.
func Build(d dom.Document) *Index {
	n := d.NodeCount()
	ix := &Index{
		nodeCount: n,
		post:      make([]uint32, n+1),
		level:     make([]uint16, n+1),
	}
	childPath := map[childKey]int32{}

	root := d.Root()
	ix.paths = append(ix.paths, Path{Parent: -1, Nodes: []dom.NodeID{root}})

	type frame struct {
		id    dom.NodeID
		path  int32
		phase uint8 // 0: namespace declarations, 1: attributes, 2: children
		next  dom.NodeID
	}
	var postCtr uint32
	leaf := func(id dom.NodeID, depth int) {
		postCtr++
		ix.post[id] = postCtr
		ix.level[id] = clipLevel(depth)
	}
	stack := []frame{{id: root, path: 0, phase: 2, next: d.FirstChild(root)}}
	ix.level[root] = 0
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		depth := len(stack) // children of the top frame sit at this level
		switch f.phase {
		case 0:
			if f.next == dom.NilNode {
				f.phase, f.next = 1, d.FirstAttr(f.id)
				continue
			}
			id := f.next
			f.next = d.NextNSDecl(id)
			leaf(id, depth)
		case 1:
			if f.next == dom.NilNode {
				f.phase, f.next = 2, d.FirstChild(f.id)
				continue
			}
			id := f.next
			f.next = d.NextAttr(id)
			leaf(id, depth)
		case 2:
			if f.next == dom.NilNode {
				postCtr++
				ix.post[f.id] = postCtr
				stack = stack[:len(stack)-1]
				continue
			}
			id := f.next
			f.next = d.NextSibling(id)
			if d.Kind(id) != dom.KindElement {
				ix.paths[f.path].Others++
				leaf(id, depth)
				continue
			}
			key := childKey{parent: f.path, uri: d.NamespaceURI(id), local: d.LocalName(id)}
			pid, ok := childPath[key]
			if !ok {
				pid = int32(len(ix.paths))
				ix.paths = append(ix.paths, Path{
					Parent: f.path, URI: key.uri, Local: key.local,
					Depth: ix.paths[f.path].Depth + 1,
				})
				childPath[key] = pid
			}
			ix.paths[pid].Nodes = append(ix.paths[pid].Nodes, id)
			ix.level[id] = clipLevel(depth)
			stack = append(stack, frame{id: id, path: pid, phase: 0, next: d.FirstNSDecl(id)})
		}
	}
	ix.deriveSubtreeCounts()
	return ix
}

type childKey struct {
	parent     int32
	uri, local string
}

func clipLevel(depth int) uint16 {
	if depth > maxLevel {
		return maxLevel
	}
	return uint16(depth)
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

// Pre returns the pre-order rank of a node (its NodeID).
func (ix *Index) Pre(id dom.NodeID) uint32 { return uint32(id) }

// Post returns the post-order rank of a node.
func (ix *Index) Post(id dom.NodeID) uint32 { return ix.post[id] }

// Level returns the depth of a node (0 for the document node), saturated
// at 65535.
func (ix *Index) Level(id dom.NodeID) uint16 { return ix.level[id] }

// Contains reports whether anc is a proper ancestor of desc: its (pre,
// post) interval strictly contains desc's. Both IDs must belong to the
// indexed document.
func (ix *Index) Contains(anc, desc dom.NodeID) bool {
	return anc < desc && ix.post[desc] < ix.post[anc]
}
