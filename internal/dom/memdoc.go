package dom

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// docIDCounter issues process-unique document identities for cross-document
// ordering.
var docIDCounter atomic.Uint64

// NextDocID returns a fresh process-unique document identity. Document
// implementations outside this package (e.g. the page-backed store) use it
// so that all documents share one ordering space.
func NextDocID() uint64 { return docIDCounter.Add(1) }

// memNode is the arena record of a MemDoc node. Links are NodeIDs; name
// parts are indices into the document's interned string table.
type memNode struct {
	kind                          NodeKind
	local, prefix, uri            int32
	parent, firstChild, lastChild NodeID
	nextSib, prevSib              NodeID
	firstAttr, firstNS            NodeID
	nextAttr, nextNS              NodeID
	value                         string
}

// MemDoc is the in-memory implementation of Document: a flat arena of node
// records with interned names. It is what a main-memory XPath interpreter
// such as the paper's comparators (xsltproc, Xalan) operates on.
type MemDoc struct {
	docID  uint64
	nodes  []memNode // index 0 unused; IDs are document order
	strs   []string
	strIdx map[string]int32

	idsOnce sync.Once
	ids     map[string]NodeID // ElementByID's map, built on first use

	ixOnce sync.Once
	ix     any // the structural path index (CachedIndex), built on first use
}

var _ Document = (*MemDoc)(nil)

// NewMemDoc returns an empty document containing only the document node.
// Use Builder to populate it.
func NewMemDoc() *MemDoc {
	d := &MemDoc{
		docID:  NextDocID(),
		strs:   []string{""},
		strIdx: map[string]int32{"": 0},
	}
	d.nodes = make([]memNode, 2) // 0 unused, 1 = document node
	d.nodes[1] = memNode{kind: KindDocument}
	return d
}

func (d *MemDoc) intern(s string) int32 {
	if i, ok := d.strIdx[s]; ok {
		return i
	}
	i := int32(len(d.strs))
	d.strs = append(d.strs, s)
	d.strIdx[s] = i
	return i
}

// DocID implements Document.
func (d *MemDoc) DocID() uint64 { return d.docID }

// Root implements Document.
func (d *MemDoc) Root() NodeID { return 1 }

// ElementByID implements Document. Safe for concurrent use once the
// document is built.
func (d *MemDoc) ElementByID(s string) NodeID {
	d.idsOnce.Do(func() { d.ids = BuildIDMap(d) })
	return d.ids[s]
}

// CachedIndex returns the document's structural index, calling build on
// the first use only. The index lives and dies with the document; the slot
// is an any because the index package imports this one. Safe for
// concurrent use once the document is built.
func (d *MemDoc) CachedIndex(build func(*MemDoc) any) any {
	d.ixOnce.Do(func() { d.ix = build(d) })
	return d.ix
}

// NodeCount implements Document.
func (d *MemDoc) NodeCount() int { return len(d.nodes) - 1 }

// Kind implements Document.
func (d *MemDoc) Kind(id NodeID) NodeKind { return d.nodes[id].kind }

// LocalName implements Document.
func (d *MemDoc) LocalName(id NodeID) string { return d.strs[d.nodes[id].local] }

// Prefix implements Document.
func (d *MemDoc) Prefix(id NodeID) string { return d.strs[d.nodes[id].prefix] }

// NamespaceURI implements Document.
func (d *MemDoc) NamespaceURI(id NodeID) string { return d.strs[d.nodes[id].uri] }

// Value implements Document.
func (d *MemDoc) Value(id NodeID) string { return d.nodes[id].value }

// Parent implements Document.
func (d *MemDoc) Parent(id NodeID) NodeID { return d.nodes[id].parent }

// FirstChild implements Document.
func (d *MemDoc) FirstChild(id NodeID) NodeID { return d.nodes[id].firstChild }

// LastChild implements Document.
func (d *MemDoc) LastChild(id NodeID) NodeID { return d.nodes[id].lastChild }

// NextSibling implements Document.
func (d *MemDoc) NextSibling(id NodeID) NodeID { return d.nodes[id].nextSib }

// PrevSibling implements Document.
func (d *MemDoc) PrevSibling(id NodeID) NodeID { return d.nodes[id].prevSib }

// FirstAttr implements Document.
func (d *MemDoc) FirstAttr(id NodeID) NodeID { return d.nodes[id].firstAttr }

// NextAttr implements Document.
func (d *MemDoc) NextAttr(id NodeID) NodeID { return d.nodes[id].nextAttr }

// FirstNSDecl implements Document.
func (d *MemDoc) FirstNSDecl(id NodeID) NodeID { return d.nodes[id].firstNS }

// NextNSDecl implements Document.
func (d *MemDoc) NextNSDecl(id NodeID) NodeID { return d.nodes[id].nextNS }

// StringValue implements Document.
func (d *MemDoc) StringValue(id NodeID) string {
	n := &d.nodes[id]
	switch n.kind {
	case KindDocument, KindElement:
		return ElementStringValue(d, id)
	default:
		return n.value
	}
}

// ElementStringValue concatenates the values of all text-node descendants of
// id in document order. It is shared by Document implementations.
func ElementStringValue(d Document, id NodeID) string {
	// Fast path: single text child, the common shape of data-centric XML.
	if c := d.FirstChild(id); c != NilNode && d.NextSibling(c) == NilNode && d.Kind(c) == KindText {
		return d.Value(c)
	}
	var sb strings.Builder
	var walk func(NodeID)
	walk = func(cur NodeID) {
		for c := d.FirstChild(cur); c != NilNode; c = d.NextSibling(c) {
			switch d.Kind(c) {
			case KindText:
				sb.WriteString(d.Value(c))
			case KindElement:
				walk(c)
			}
		}
	}
	walk(id)
	return sb.String()
}

// InPlaceValues is implemented by documents whose values are not held as Go
// strings (the page store). ValueLen is a value's length in bytes, read
// without the value; ValueEquals compares the value with s where it is
// stored. StringValueEquals uses them so a comparison never materializes a
// value.
type InPlaceValues interface {
	ValueLen(id NodeID) int
	ValueEquals(id NodeID, s string) bool
}

// StringValueEquals reports whether the string-value of id equals s. On an
// InPlaceValues document it never concatenates: a text, attribute, comment,
// processing-instruction or namespace node compares its value, and a
// document or element node streams its text descendants, in
// ElementStringValue's order, against consecutive pieces of s. Other
// documents hold their values as strings and compare StringValue.
func StringValueEquals(d Document, id NodeID, s string) bool {
	iv, ok := d.(InPlaceValues)
	if !ok {
		return d.StringValue(id) == s
	}
	switch d.Kind(id) {
	case KindDocument, KindElement:
		// Single text child: one whole-value comparison, whose length check
		// alone settles most mismatches.
		if c := d.FirstChild(id); c != NilNode && d.NextSibling(c) == NilNode && d.Kind(c) == KindText {
			return iv.ValueEquals(c, s)
		}
		rest, ok := matchText(d, iv, id, s)
		return ok && rest == ""
	}
	return iv.ValueEquals(id, s)
}

// matchText matches the text descendants of id against the front of s and
// returns the unmatched rest; ok is false at the first mismatch.
func matchText(d Document, iv InPlaceValues, id NodeID, s string) (rest string, ok bool) {
	for c := d.FirstChild(id); c != NilNode; c = d.NextSibling(c) {
		switch d.Kind(c) {
		case KindText:
			n := iv.ValueLen(c)
			if n > len(s) || !iv.ValueEquals(c, s[:n]) {
				return s, false
			}
			s = s[n:]
		case KindElement:
			if s, ok = matchText(d, iv, c, s); !ok {
				return s, false
			}
		}
	}
	return s, true
}

// Builder constructs a MemDoc incrementally in document order. It is used by
// the XML parser and by the synthetic document generators.
type Builder struct {
	doc   *MemDoc
	stack []NodeID // open element chain; stack[0] is the document node
}

// NewBuilder returns a builder over a fresh document.
func NewBuilder() *Builder {
	d := NewMemDoc()
	return &Builder{doc: d, stack: []NodeID{d.Root()}}
}

// Doc returns the document under construction. Call after the final
// EndElement (the builder does not enforce balance; the XML parser does).
func (b *Builder) Doc() *MemDoc { return b.doc }

func (b *Builder) alloc(n memNode) NodeID {
	id := NodeID(len(b.doc.nodes))
	b.doc.nodes = append(b.doc.nodes, n)
	return id
}

func (b *Builder) top() NodeID { return b.stack[len(b.stack)-1] }

func (b *Builder) appendChild(id NodeID) {
	d := b.doc
	p := b.top()
	d.nodes[id].parent = p
	if d.nodes[p].firstChild == NilNode {
		d.nodes[p].firstChild = id
		d.nodes[p].lastChild = id
		return
	}
	last := d.nodes[p].lastChild
	d.nodes[last].nextSib = id
	d.nodes[id].prevSib = last
	d.nodes[p].lastChild = id
}

// StartElement opens an element with the given name parts and makes it the
// current parent. Attributes and namespace declarations must be added before
// any child content, preserving document order of node IDs.
func (b *Builder) StartElement(prefix, local, uri string) NodeID {
	d := b.doc
	id := b.alloc(memNode{
		kind:   KindElement,
		local:  d.intern(local),
		prefix: d.intern(prefix),
		uri:    d.intern(uri),
	})
	b.appendChild(id)
	b.stack = append(b.stack, id)
	return id
}

// EndElement closes the current element. Closing with no element open is
// reported as an error and otherwise ignored, so a malformed build degrades
// to a malformed document rather than a crash.
func (b *Builder) EndElement() error {
	if len(b.stack) <= 1 {
		return fmt.Errorf("dom: EndElement without matching StartElement")
	}
	b.stack = b.stack[:len(b.stack)-1]
	return nil
}

// Attr adds an attribute to the current element.
func (b *Builder) Attr(prefix, local, uri, value string) NodeID {
	d := b.doc
	e := b.top()
	id := b.alloc(memNode{
		kind:   KindAttribute,
		local:  d.intern(local),
		prefix: d.intern(prefix),
		uri:    d.intern(uri),
		parent: e,
		value:  value,
	})
	if d.nodes[e].firstAttr == NilNode {
		d.nodes[e].firstAttr = id
	} else {
		a := d.nodes[e].firstAttr
		for d.nodes[a].nextAttr != NilNode {
			a = d.nodes[a].nextAttr
		}
		d.nodes[a].nextAttr = id
	}
	return id
}

// NSDecl records a namespace declaration (xmlns or xmlns:prefix) written on
// the current element. prefix is "" for the default namespace.
func (b *Builder) NSDecl(prefix, uri string) NodeID {
	d := b.doc
	e := b.top()
	id := b.alloc(memNode{
		kind:   KindNamespace,
		local:  d.intern(prefix),
		parent: e,
		value:  uri,
	})
	if d.nodes[e].firstNS == NilNode {
		d.nodes[e].firstNS = id
	} else {
		n := d.nodes[e].firstNS
		for d.nodes[n].nextNS != NilNode {
			n = d.nodes[n].nextNS
		}
		d.nodes[n].nextNS = id
	}
	return id
}

// Text appends a text node. Adjacent text nodes are merged, as the XPath
// data model requires each text node to contain as much text as possible.
func (b *Builder) Text(s string) NodeID {
	if s == "" {
		return NilNode
	}
	d := b.doc
	if last := d.nodes[b.top()].lastChild; last != NilNode && d.nodes[last].kind == KindText {
		d.nodes[last].value += s
		return last
	}
	id := b.alloc(memNode{kind: KindText, value: s})
	b.appendChild(id)
	return id
}

// Comment appends a comment node.
func (b *Builder) Comment(s string) NodeID {
	id := b.alloc(memNode{kind: KindComment, value: s})
	b.appendChild(id)
	return id
}

// ProcInstr appends a processing-instruction node with the given target and
// content.
func (b *Builder) ProcInstr(target, content string) NodeID {
	d := b.doc
	id := b.alloc(memNode{kind: KindProcInstr, local: d.intern(target), value: content})
	b.appendChild(id)
	return id
}
