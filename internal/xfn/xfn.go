// Package xfn implements the runtime support for XPath core functions that
// operate on nodes and node-sets. It is shared by the baseline interpreters
// and by the virtual machine of the algebraic engine so that both agree on
// semantics (first-in-document-order selection, id() resolution, xml:lang
// matching, node-set arithmetic aggregation).
package xfn

import (
	"sort"
	"strings"

	"natix/internal/dom"
	"natix/internal/xval"
)

// SortDocOrder sorts nodes into document order in place.
func SortDocOrder(nodes []dom.Node) {
	sort.Slice(nodes, func(i, j int) bool {
		return dom.CompareOrder(nodes[i], nodes[j]) < 0
	})
}

// DedupSorted removes adjacent duplicates from a document-ordered slice,
// returning the shortened slice.
func DedupSorted(nodes []dom.Node) []dom.Node {
	if len(nodes) < 2 {
		return nodes
	}
	out := nodes[:1]
	for _, n := range nodes[1:] {
		if !n.Same(out[len(out)-1]) {
			out = append(out, n)
		}
	}
	return out
}

// SortDedup sorts into document order and removes duplicates.
func SortDedup(nodes []dom.Node) []dom.Node {
	SortDocOrder(nodes)
	return DedupSorted(nodes)
}

// FirstInDocOrder returns the document-order-first node of a (possibly
// unsorted) non-empty slice.
func FirstInDocOrder(nodes []dom.Node) dom.Node {
	first := nodes[0]
	for _, n := range nodes[1:] {
		if dom.CompareOrder(n, first) < 0 {
			first = n
		}
	}
	return first
}

// LocalName implements local-name(node-set).
func LocalName(nodes []dom.Node) string {
	if len(nodes) == 0 {
		return ""
	}
	return FirstInDocOrder(nodes).LocalName()
}

// NamespaceURI implements namespace-uri(node-set).
func NamespaceURI(nodes []dom.Node) string {
	if len(nodes) == 0 {
		return ""
	}
	return FirstInDocOrder(nodes).NamespaceURI()
}

// Name implements name(node-set).
func Name(nodes []dom.Node) string {
	if len(nodes) == 0 {
		return ""
	}
	return FirstInDocOrder(nodes).Name()
}

// Count implements count(node-set).
func Count(nodes []dom.Node) float64 { return float64(len(nodes)) }

// Sum implements sum(node-set): the sum over the numbers of the nodes'
// string-values.
func Sum(nodes []dom.Node) float64 {
	var s float64
	for _, n := range nodes {
		s += xval.ParseNumber(n.StringValue())
	}
	return s
}

// Lang implements lang(s) for a context node: the nearest xml:lang
// attribute on the ancestor-or-self chain, matched per spec section 4.3.
func Lang(ctx dom.Node, want string) bool {
	d := ctx.Doc
	for id := ctx.ID; id != dom.NilNode; id = d.Parent(id) {
		if d.Kind(id) != dom.KindElement {
			continue
		}
		for a := d.FirstAttr(id); a != dom.NilNode; a = d.NextAttr(a) {
			if d.LocalName(a) == "lang" && d.NamespaceURI(a) == dom.XMLNamespaceURI {
				return langMatches(d.Value(a), want)
			}
		}
	}
	return false
}

func langMatches(xmlLang, want string) bool {
	if xmlLang == "" {
		return false
	}
	xl, w := strings.ToLower(xmlLang), strings.ToLower(want)
	return xl == w || strings.HasPrefix(xl, w+"-")
}

// Tokenize splits a string on XML whitespace, for id() over non-node-set
// arguments.
func Tokenize(s string) []string { return strings.FieldsFunc(s, isXMLSpace) }

func isXMLSpace(r rune) bool {
	return r == ' ' || r == '\t' || r == '\r' || r == '\n'
}

// ID implements the id() function: value is either a node-set (each node's
// string-value is an ID token list) or any other value (converted to string
// and tokenized), each token resolved by d.ElementByID. The result is
// sorted into document order and duplicate-free.
func ID(d dom.Document, value xval.Value) []dom.Node {
	var tokens []string
	if value.IsNodeSet() {
		for _, n := range value.Nodes {
			tokens = append(tokens, Tokenize(n.StringValue())...)
		}
	} else {
		tokens = Tokenize(value.String())
	}
	var out []dom.Node
	for _, tok := range tokens {
		if id := d.ElementByID(tok); id != dom.NilNode {
			out = append(out, dom.Node{Doc: d, ID: id})
		}
	}
	return SortDedup(out)
}
