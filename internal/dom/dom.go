// Package dom defines the XML document model used throughout the engine:
// node kinds, a navigational Document interface, node handles, the thirteen
// XPath axes, node tests, and document order.
//
// Two implementations of Document exist: MemDoc (in this package), an
// in-memory arena used by the baseline interpreters and the test suite, and
// store.Doc, which navigates the paged Natix storage layout through a buffer
// manager without building a main-memory tree (paper section 5.2.2).
package dom

import "fmt"

// NodeKind is the type of a node in the XPath data model.
type NodeKind uint8

// Node kinds. The numeric order is meaningless; document order is defined by
// node identifiers, not kinds.
const (
	KindDocument NodeKind = iota + 1
	KindElement
	KindAttribute
	KindText
	KindComment
	KindProcInstr
	KindNamespace
)

// String returns a human-readable kind name.
func (k NodeKind) String() string {
	switch k {
	case KindDocument:
		return "document"
	case KindElement:
		return "element"
	case KindAttribute:
		return "attribute"
	case KindText:
		return "text"
	case KindComment:
		return "comment"
	case KindProcInstr:
		return "processing-instruction"
	case KindNamespace:
		return "namespace"
	}
	return fmt.Sprintf("NodeKind(%d)", uint8(k))
}

// NodeID identifies a node within one document. IDs are assigned in document
// order when a document is built (element, then its namespace declarations,
// then its attributes, then its children), so comparing IDs compares
// document positions. Zero is the nil node.
type NodeID uint32

// NilNode is the absent node.
const NilNode NodeID = 0

// Document is the navigational interface over a stored XML document. All
// methods taking a NodeID must be called with IDs obtained from the same
// document. Implementations return NilNode where a relationship does not
// exist.
type Document interface {
	// DocID returns a process-unique identifier for ordering nodes across
	// documents.
	DocID() uint64
	// Root returns the document node.
	Root() NodeID
	// NodeCount returns the number of nodes (the maximum valid NodeID).
	NodeCount() int

	// Kind returns the node kind of id.
	Kind(id NodeID) NodeKind
	// LocalName returns the local part of the node's expanded name: the
	// element/attribute local name, the processing-instruction target, or
	// the prefix bound by a namespace node. Empty for other kinds.
	LocalName(id NodeID) string
	// Prefix returns the namespace prefix of an element or attribute name,
	// or "" if the name is unprefixed.
	Prefix(id NodeID) string
	// NamespaceURI returns the namespace URI of the node's expanded name,
	// or "" for names in no namespace.
	NamespaceURI(id NodeID) string
	// Value returns the content of an attribute, text, comment or
	// processing-instruction node, or the URI bound by a namespace node.
	// Empty for documents and elements (use StringValue).
	Value(id NodeID) string

	// Parent returns the parent node (NilNode for the document node and
	// for namespace declaration records reached via the namespace axis).
	Parent(id NodeID) NodeID
	// FirstChild and the sibling accessors traverse the child list, which
	// contains elements, text, comments and processing instructions, but
	// never attributes or namespace nodes.
	FirstChild(id NodeID) NodeID
	LastChild(id NodeID) NodeID
	NextSibling(id NodeID) NodeID
	PrevSibling(id NodeID) NodeID

	// FirstAttr and NextAttr traverse the attribute chain of an element.
	FirstAttr(id NodeID) NodeID
	NextAttr(id NodeID) NodeID
	// FirstNSDecl and NextNSDecl traverse the namespace declarations
	// written on an element itself (not the in-scope set; see Stepper).
	FirstNSDecl(id NodeID) NodeID
	NextNSDecl(id NodeID) NodeID

	// StringValue returns the XPath string-value of the node: for document
	// and element nodes the concatenation of descendant text nodes, for
	// others the same as Value.
	StringValue(id NodeID) string
}

// Node is a handle to a node in some document. The zero Node is nil.
type Node struct {
	Doc Document
	ID  NodeID
}

// IsNil reports whether the handle refers to no node.
func (n Node) IsNil() bool { return n.Doc == nil || n.ID == NilNode }

// Kind returns the node kind.
func (n Node) Kind() NodeKind { return n.Doc.Kind(n.ID) }

// LocalName returns the local part of the expanded name.
func (n Node) LocalName() string { return n.Doc.LocalName(n.ID) }

// Prefix returns the namespace prefix, or "".
func (n Node) Prefix() string { return n.Doc.Prefix(n.ID) }

// NamespaceURI returns the namespace URI, or "".
func (n Node) NamespaceURI() string { return n.Doc.NamespaceURI(n.ID) }

// Name returns the qualified name as produced by the XPath name() function.
func (n Node) Name() string {
	if p := n.Prefix(); p != "" {
		return p + ":" + n.LocalName()
	}
	return n.LocalName()
}

// Value returns the node content (see Document.Value).
func (n Node) Value() string { return n.Doc.Value(n.ID) }

// StringValue returns the XPath string-value.
func (n Node) StringValue() string { return n.Doc.StringValue(n.ID) }

// Parent returns the parent node handle.
func (n Node) Parent() Node { return Node{n.Doc, n.Doc.Parent(n.ID)} }

// FirstChild returns the first child handle.
func (n Node) FirstChild() Node { return Node{n.Doc, n.Doc.FirstChild(n.ID)} }

// NextSibling returns the next sibling handle.
func (n Node) NextSibling() Node { return Node{n.Doc, n.Doc.NextSibling(n.ID)} }

// Root returns the document node of n's document.
func (n Node) Root() Node { return Node{n.Doc, n.Doc.Root()} }

// Same reports whether two handles denote the same node.
func (n Node) Same(m Node) bool {
	if n.IsNil() || m.IsNil() {
		return n.IsNil() && m.IsNil()
	}
	return n.ID == m.ID && n.Doc.DocID() == m.Doc.DocID()
}

// CompareOrder compares two nodes in document order: -1 if a precedes b,
// 0 if identical, +1 if a follows b. Nodes of different documents are
// ordered by document identity, which is stable within a process.
func CompareOrder(a, b Node) int {
	if da, db := a.Doc.DocID(), b.Doc.DocID(); da != db {
		if da < db {
			return -1
		}
		return 1
	}
	switch {
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	}
	return 0
}

// String formats the node for diagnostics.
func (n Node) String() string {
	if n.IsNil() {
		return "nil-node"
	}
	switch n.Kind() {
	case KindElement:
		return fmt.Sprintf("element(%s)#%d", n.Name(), n.ID)
	case KindAttribute:
		return fmt.Sprintf("attribute(%s=%q)#%d", n.Name(), n.Value(), n.ID)
	case KindText:
		return fmt.Sprintf("text(%.20q)#%d", n.Value(), n.ID)
	case KindDocument:
		return fmt.Sprintf("document#%d", n.ID)
	case KindComment:
		return fmt.Sprintf("comment#%d", n.ID)
	case KindProcInstr:
		return fmt.Sprintf("pi(%s)#%d", n.LocalName(), n.ID)
	case KindNamespace:
		return fmt.Sprintf("namespace(%s=%q)#%d", n.LocalName(), n.Value(), n.ID)
	}
	return fmt.Sprintf("node#%d", n.ID)
}
