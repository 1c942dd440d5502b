package translate

import "natix/internal/dom"

// props are the static sequence properties of the Hidders/Michiels-style
// analysis the paper defers ([13], cited in sections 4.1 and 3.4.2): they
// hold for the tuple sequence a partial plan produces, and are transformed
// by each location step. They are the one rule that places duplicate
// eliminations (subsuming the per-axis ppd rule of section 4.1) and
// document-order sorts (section 3.4.2, footnote 3), in both modes.
type props struct {
	// maxOne: the sequence holds at most one node.
	maxOne bool
	// ordered: node attribute values appear in document order.
	ordered bool
	// dupFree: no node appears twice.
	dupFree bool
	// nonNested: no node is an ancestor of another (subtrees disjoint).
	nonNested bool
}

// seedProps describes a single-node context (the root of an absolute path
// or the context node of a relative one).
func seedProps() props {
	return props{maxOne: true, ordered: true, dupFree: true, nonNested: true}
}

// unknownProps describes sequences with no static guarantees (variables).
func unknownProps() props { return props{} }

// afterDupElim returns the properties after a duplicate elimination, which
// preserves order and nesting and establishes duplicate-freeness.
func (p props) afterDupElim() props {
	p.dupFree = true
	return p
}

// afterSort returns the properties after a document-order sort.
func (p props) afterSort() props {
	p.ordered = true
	return p
}

// step derives the output properties of one location step applied to a
// sequence with properties p. The rules are conservative: a property is
// claimed only when it provably holds for arbitrary documents.
func (p props) step(axis dom.Axis) props {
	m := p.maxOne
	switch axis {
	case dom.AxisSelf:
		return p

	case dom.AxisChild:
		// Each node has one parent, so distinct contexts yield distinct
		// children; order additionally needs disjoint context subtrees
		// (children of an ancestor and of its descendant interleave).
		return props{
			dupFree:   p.dupFree,
			ordered:   m || (p.ordered && p.dupFree && p.nonNested),
			nonNested: m || p.nonNested,
		}

	case dom.AxisAttribute:
		// Like child; attributes are leaves, so the result is always
		// non-nested.
		return props{
			dupFree:   p.dupFree,
			ordered:   m || (p.ordered && p.dupFree && p.nonNested),
			nonNested: true,
		}

	case dom.AxisNamespace:
		// This engine yields shared declaration records (DESIGN.md), so
		// distinct contexts can produce the same node.
		return props{dupFree: m, nonNested: true, ordered: m}

	case dom.AxisParent:
		// Siblings share a parent: everything needs a single context.
		return props{maxOne: m, ordered: m, dupFree: m, nonNested: m}

	case dom.AxisAncestor, dom.AxisAncestorOrSelf:
		// From one node the chain is duplicate-free but nested and in
		// reverse document order.
		return props{dupFree: m}

	case dom.AxisDescendant, dom.AxisDescendantOrSelf:
		// Disjoint duplicate-free subtrees have disjoint descendant sets,
		// delivered in document order; the result itself is nested.
		return props{
			dupFree: m || (p.dupFree && p.nonNested),
			ordered: m || (p.ordered && p.dupFree && p.nonNested),
		}

	case dom.AxisFollowingSibling:
		// Sibling lists of distinct contexts overlap; sound only for a
		// single context, where the result is ordered siblings.
		return props{dupFree: m, ordered: m, nonNested: m}

	case dom.AxisPrecedingSibling:
		return props{dupFree: m, nonNested: m}

	case dom.AxisFollowing:
		return props{dupFree: m, ordered: m}

	case dom.AxisPreceding:
		return props{dupFree: m}
	}
	return props{}
}
