// Package nvm implements the Natix Virtual Machine (paper section 5.2.2):
// small assembler-like programs that evaluate the non-sequence-valued
// subscripts of the physical algebra operators. Programs operate on a
// register file shared with the iterators (the compiler's attribute manager
// maps attributes to registers, section 5.1) and can drive nested iterators
// for aggregation (section 5.2.3), with premature termination for
// aggregates like exists() (smart aggregation, section 5.2.5).
package nvm

import (
	"natix/internal/dom"
	"natix/internal/xval"
)

// Val is a register or stack value: either a single document node or a
// value of a basic XPath type. The zero Val is an empty node-set value.
type Val struct {
	node   dom.Node
	val    xval.Value
	isNode bool
}

// NodeVal wraps a node.
func NodeVal(n dom.Node) Val { return Val{node: n, isNode: true} }

// ScalarVal wraps a basic-type value.
func ScalarVal(v xval.Value) Val { return Val{val: v} }

// BoolVal wraps a boolean.
func BoolVal(b bool) Val { return Val{val: xval.Bool(b)} }

// NumVal wraps a number.
func NumVal(f float64) Val { return Val{val: xval.Num(f)} }

// StrVal wraps a string.
func StrVal(s string) Val { return Val{val: xval.Str(s)} }

// IsNode reports whether the value is a single node.
func (v Val) IsNode() bool { return v.isNode }

// Node returns the wrapped node (zero Node if not a node).
func (v Val) Node() dom.Node {
	if v.isNode {
		return v.node
	}
	return dom.Node{}
}

// Value converts to an xval.Value; a node becomes a singleton node-set.
func (v Val) Value() xval.Value {
	if v.isNode {
		return xval.SingleNode(v.node)
	}
	return v.val
}

// Bool converts with the boolean() rules; a node is a non-empty node-set.
func (v Val) Bool() bool {
	if v.isNode {
		return true
	}
	return v.val.Boolean()
}

// Num converts with the number() rules; a node converts via its
// string-value.
func (v Val) Num() float64 {
	if v.isNode {
		return xval.ParseNumber(v.node.StringValue())
	}
	return v.val.Number()
}

// Str converts with the string() rules; a node converts to its
// string-value.
func (v Val) Str() string {
	if v.isNode {
		return v.node.StringValue()
	}
	return v.val.String()
}

// strEquals reports whether Str() == s. A node compares its string-value
// where it is stored (dom.StringValueEquals) instead of materializing it.
func (v Val) strEquals(s string) bool {
	if v.isNode {
		return dom.StringValueEquals(v.node.Doc, v.node.ID, s)
	}
	return v.val.String() == s
}

// Key returns a comparable identity for duplicate elimination and
// memoization: node identity for nodes, kind+content for scalars.
func (v Val) Key() any {
	if v.isNode {
		return nodeKey{doc: v.node.Doc.DocID(), id: v.node.ID}
	}
	switch v.val.Kind {
	case xval.KindBoolean:
		return v.val.B
	case xval.KindNumber:
		return v.val.N
	case xval.KindString:
		return v.val.S
	}
	// Node-set values are not hashable; callers do not use them as keys.
	return nil
}

type nodeKey struct {
	doc uint64
	id  dom.NodeID
}

// Compare applies the full comparison semantics of XPath 1.0 section 3.4
// to two machine values. Scalar-scalar pairs take the fast path; values
// involving nodes compare through string-values without materializing
// node-sets where possible.
func Compare(op xval.CompareOp, a, b Val) bool {
	switch {
	case a.isNode && b.isNode:
		return compareStrings(op, a.node.StringValue(), b.node.StringValue())
	case a.isNode:
		if b.val.IsNodeSet() {
			return xval.Compare(op, a.Value(), b.val)
		}
		return compareNodeScalar(op, a, b.val)
	case b.isNode:
		if a.val.IsNodeSet() {
			return xval.Compare(op, a.val, b.Value())
		}
		return compareNodeScalar(op.Negate(), b, a.val)
	default:
		return xval.Compare(op, a.val, b.val)
	}
}

// compareNodeScalar compares node n's string-value against a scalar with
// the node on the left. String equality compares in place (strEquals).
func compareNodeScalar(op xval.CompareOp, n Val, b xval.Value) bool {
	switch {
	case b.Kind == xval.KindBoolean:
		return xval.Compare(op, xval.Bool(true), b) // singleton node-set is true
	case b.Kind == xval.KindNumber:
		return numCompare(op, n.Num(), b.N)
	case op == xval.OpEq || op == xval.OpNe:
		return n.strEquals(b.S) == (op == xval.OpEq)
	default:
		return compareStrings(op, n.Str(), b.S)
	}
}

func compareStrings(op xval.CompareOp, a, b string) bool {
	switch op {
	case xval.OpEq:
		return a == b
	case xval.OpNe:
		return a != b
	}
	return numCompare(op, xval.ParseNumber(a), xval.ParseNumber(b))
}

func numCompare(op xval.CompareOp, a, b float64) bool {
	switch op {
	case xval.OpEq:
		return a == b
	case xval.OpNe:
		return a != b // NaN != x is true, matching Go and xval.Compare
	case xval.OpLt:
		return a < b
	case xval.OpLe:
		return a <= b
	case xval.OpGt:
		return a > b
	case xval.OpGe:
		return a >= b
	}
	return false
}
