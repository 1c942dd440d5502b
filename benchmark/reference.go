package main

import (
	"fmt"
	"hash/fnv"

	"natix/internal/conformance"
	"natix/internal/dom"
	"natix/internal/interp"
	"natix/internal/sem"
	"natix/internal/xval"
)

// answer is the checkable summary of one query result: cardinality plus a
// digest for library runs (which see node ids), and the first and last node
// values in document order for service runs (which see serialized nodes).
type answer struct {
	count  int    // nodes in the result; -1 for a scalar
	digest uint64 // order-independent over node ids, or FNV-1a of the scalar rendering
	first  string
	last   string
}

// mix64 is the splitmix64 finalizer; summing it over node ids gives a digest
// that does not depend on the order a plan produced the nodes in (node-sets
// are unordered, and the engine legitimately returns other orders than the
// interpreter).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// nodeValue is the string a server serializes for a node.
func nodeValue(n dom.Node) string {
	switch n.Kind() {
	case dom.KindDocument, dom.KindElement:
		return n.StringValue()
	}
	return n.Value()
}

// answerOf summarizes a value. ends also finds the first and last node in
// document order, which costs a comparison per node.
func answerOf(v xval.Value, ends bool) answer {
	if !v.IsNodeSet() {
		h := fnv.New64a()
		h.Write([]byte(conformance.Render(v)))
		return answer{count: -1, digest: h.Sum64()}
	}
	a := answer{count: len(v.Nodes)}
	for _, n := range v.Nodes {
		a.digest += mix64(uint64(n.ID) + 1)
	}
	if ends && len(v.Nodes) > 0 {
		lo, hi := v.Nodes[0], v.Nodes[0]
		for _, n := range v.Nodes[1:] {
			if dom.CompareOrder(n, lo) < 0 {
				lo = n
			}
			if dom.CompareOrder(n, hi) > 0 {
				hi = n
			}
		}
		a.first, a.last = nodeValue(lo), nodeValue(hi)
	}
	return a
}

func (a answer) equal(b answer) bool { return a.count == b.count && a.digest == b.digest }

// reference evaluates expr with the main-memory interpreter, the paper's
// Xalan stand-in and this repository's oracle.
func reference(expr string, ns map[string]string, root dom.Node, vars map[string]xval.Value, ends bool) (answer, error) {
	q, err := interp.Compile(expr, &sem.Env{Namespaces: ns}, interp.Options{DedupSteps: true})
	if err != nil {
		return answer{}, fmt.Errorf("reference compile %q: %w", expr, err)
	}
	v, err := q.Eval(root, vars)
	if err != nil {
		return answer{}, fmt.Errorf("reference eval %q: %w", expr, err)
	}
	return answerOf(v, ends), nil
}
