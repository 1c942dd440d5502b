package dom

import (
	"fmt"
	"strconv"
)

// Axis is one of the thirteen XPath location step axes.
type Axis uint8

// The thirteen axes of XPath 1.0.
const (
	AxisChild Axis = iota
	AxisDescendant
	AxisParent
	AxisAncestor
	AxisFollowingSibling
	AxisPrecedingSibling
	AxisFollowing
	AxisPreceding
	AxisAttribute
	AxisNamespace
	AxisSelf
	AxisDescendantOrSelf
	AxisAncestorOrSelf
)

// AxisCount is the number of axes (for table-driven code).
const AxisCount = int(AxisAncestorOrSelf) + 1

var axisNames = [...]string{
	AxisChild:            "child",
	AxisDescendant:       "descendant",
	AxisParent:           "parent",
	AxisAncestor:         "ancestor",
	AxisFollowingSibling: "following-sibling",
	AxisPrecedingSibling: "preceding-sibling",
	AxisFollowing:        "following",
	AxisPreceding:        "preceding",
	AxisAttribute:        "attribute",
	AxisNamespace:        "namespace",
	AxisSelf:             "self",
	AxisDescendantOrSelf: "descendant-or-self",
	AxisAncestorOrSelf:   "ancestor-or-self",
}

// String returns the XPath spelling of the axis.
func (a Axis) String() string {
	if int(a) < len(axisNames) {
		return axisNames[a]
	}
	return fmt.Sprintf("Axis(%d)", uint8(a))
}

// AxisByName resolves an axis name (the unabbreviated XPath spelling).
func AxisByName(name string) (Axis, bool) {
	for a, n := range axisNames {
		if n == name {
			return Axis(a), true
		}
	}
	return 0, false
}

// Reverse reports whether the axis delivers nodes in reverse document order
// (ancestor, ancestor-or-self, preceding, preceding-sibling). The parent
// axis is trivially both.
func (a Axis) Reverse() bool {
	switch a {
	case AxisAncestor, AxisAncestorOrSelf, AxisPreceding, AxisPrecedingSibling, AxisParent:
		return true
	}
	return false
}

// Principal returns the principal node kind of the axis (XPath 2.3): the
// attribute axis selects attributes, the namespace axis namespace nodes,
// every other axis elements.
func (a Axis) Principal() NodeKind {
	switch a {
	case AxisAttribute:
		return KindAttribute
	case AxisNamespace:
		return KindNamespace
	}
	return KindElement
}

// PPD reports whether a location step over this axis potentially produces
// duplicate nodes when applied to a duplicate-free context (the ppd
// classification of paper section 4.1). Such steps are followed by a pushed
// duplicate elimination in the improved translation.
func (a Axis) PPD() bool {
	switch a {
	case AxisFollowing, AxisFollowingSibling, AxisPreceding, AxisPrecedingSibling,
		AxisParent, AxisAncestor, AxisAncestorOrSelf,
		AxisDescendant, AxisDescendantOrSelf:
		return true
	}
	return false
}

// FromEndOK reports whether a walk of the axis can start at its far end
// (Stepper.ResetFromEnd): the axes that walk one sibling list.
func (a Axis) FromEndOK() bool {
	switch a {
	case AxisChild, AxisFollowingSibling, AxisPrecedingSibling:
		return true
	}
	return false
}

// Window is a positional window of a location step: per context it admits
// only the matches (nodes passing the step's node test) at proximity
// positions Lo..Hi, 1-based and inclusive. FromEnd counts from the last
// match, position 1 being last(); it holds one position (Lo == Hi) and
// applies to the FromEndOK axes, walked from their far end. The zero Window
// admits everything.
type Window struct {
	Lo, Hi  int
	FromEnd bool
}

// Active reports whether w restricts the step.
func (w Window) Active() bool { return w.Lo > 0 }

// Admit classifies the match at position pos of a windowed walk, counted
// in the direction of the walk: whether it is emitted, and whether the walk
// of this context is over once it has been.
func (w Window) Admit(pos int) (emit, done bool) { return pos >= w.Lo, pos >= w.Hi }

// String renders the window as Explain shows it on the step: #3, #1..99,
// #1 from end.
func (w Window) String() string {
	s := "#" + strconv.Itoa(w.Lo)
	if w.Hi != w.Lo {
		s += ".." + strconv.Itoa(w.Hi)
	}
	if w.FromEnd {
		s += " from end"
	}
	return s
}

// Stepper enumerates the nodes of one axis from a context node, in axis
// order (document order for forward axes, reverse document order for
// reverse axes). A Stepper is reusable: call Reset, then Next until it
// returns false. Steppers do not allocate after the first use except for
// the namespace axis, which materializes the small in-scope set.
type Stepper struct {
	axis Axis
	doc  Document
	ctx  NodeID
	cur  NodeID
	done bool
	back bool     // a from-end walk (ResetFromEnd)
	vis  *Visited // nil for a plain walk

	// Pruned counts the marked nodes a visited-set walk met instead of
	// yielding: each is one probe of the walk, whether it ended the walk,
	// was stepped over with its subtree, or was skipped. Dropped counts the
	// ones a test-and-mark walk skipped. The caller reads and zeroes both.
	Pruned, Dropped int64

	// following/preceding state.
	anchorAncestors map[NodeID]struct{} // preceding: ancestor set to skip
	// namespace axis state.
	nsNodes []NodeID
	nsIdx   int
	nsSeen  map[string]struct{}
}

// NewStepper returns a stepper for the given axis. Reset must be called
// before the first Next.
func NewStepper(axis Axis) *Stepper { return &Stepper{axis: axis, done: true} }

// Axis returns the axis this stepper traverses.
func (s *Stepper) Axis() Axis { return s.axis }

// Reset positions the stepper at the start of the axis for context node
// (doc, ctx).
func (s *Stepper) Reset(doc Document, ctx NodeID) { s.ResetVisited(doc, ctx, nil) }

// ResetVisited is Reset for a visited-set walk (v nil is a plain walk): it
// yields only nodes not in v and adds each to v as it reaches it, so walks
// sharing v yield the first occurrences of their plain walks, in order. A
// marked node prunes the walk by the rule "reached n => the axis from n is
// already reached" (visit; DESIGN.md §5 has the proof per axis). v must
// hold nodes of doc only, reached by walks of this axis only.
func (s *Stepper) ResetVisited(doc Document, ctx NodeID, v *Visited) {
	s.doc, s.ctx, s.done, s.vis, s.back = doc, ctx, false, v, false
	switch s.axis {
	case AxisSelf, AxisAncestorOrSelf, AxisDescendantOrSelf:
		s.cur = ctx
	case AxisChild:
		s.cur = doc.FirstChild(ctx)
	case AxisParent, AxisAncestor:
		s.cur = doc.Parent(ctx)
	case AxisFollowingSibling:
		s.cur = s.siblingStart(true)
	case AxisPrecedingSibling:
		s.cur = s.siblingStart(false)
	case AxisAttribute:
		s.cur = doc.FirstAttr(ctx)
	case AxisDescendant:
		if v != nil && v.Has(ctx) {
			// A marked context was reached by an earlier walk, and so
			// was its whole subtree.
			s.Pruned++
			s.cur = NilNode
		} else {
			s.cur = s.descend(ctx)
		}
	case AxisFollowing:
		s.cur = s.followingStart()
	case AxisPreceding:
		s.initPreceding()
	case AxisNamespace:
		s.initNamespace()
	}
	if s.axis != AxisNamespace {
		if v != nil {
			s.visit()
		}
		if s.cur == NilNode {
			s.done = true
		}
	}
}

// ResetFromEnd positions the stepper at the far end of a sibling-list axis
// (FromEndOK) from context node (doc, ctx) and walks it backwards: Next and
// NextBatch yield the axis in reverse axis order, so the k-th node is the
// k-th from last(). child starts at the last child; following-sibling at the
// parent's last child and preceding-sibling at its first child, each
// stopping short of ctx.
func (s *Stepper) ResetFromEnd(doc Document, ctx NodeID) {
	s.doc, s.ctx, s.done, s.vis, s.back = doc, ctx, false, nil, true
	s.cur = NilNode
	switch s.axis {
	case AxisChild:
		s.cur = doc.LastChild(ctx)
	case AxisFollowingSibling:
		if s.siblingStart(true) != NilNode {
			s.cur = doc.LastChild(doc.Parent(ctx))
		}
	case AxisPrecedingSibling:
		if s.siblingStart(false) != NilNode {
			s.cur = doc.FirstChild(doc.Parent(ctx))
		}
	}
	if s.cur == NilNode {
		s.done = true
	}
}

// moveBack steps cur one node towards the context of a from-end walk; the
// walk of a sibling axis ends at the context itself.
func (s *Stepper) moveBack() {
	if s.axis == AxisPrecedingSibling {
		s.cur = s.doc.NextSibling(s.cur)
	} else {
		s.cur = s.doc.PrevSibling(s.cur)
	}
	if s.cur == s.ctx {
		s.cur = NilNode
	}
}

// NextBatch fills buf with the next nodes of the axis and returns how many
// it wrote. A return of 0 means the axis is exhausted; a partial fill
// (0 < n < len(buf)) happens only at exhaustion, so callers may treat any
// short batch as the final one. The batched axis loop keeps the traversal
// state in registers across len(buf) advances instead of paying the
// per-node call boundary of Next.
func (s *Stepper) NextBatch(buf []NodeID) int {
	if s.done || len(buf) == 0 {
		return 0
	}
	n := 0
	if s.axis == AxisNamespace {
		for n < len(buf) && s.nsIdx < len(s.nsNodes) {
			buf[n] = s.nsNodes[s.nsIdx]
			n++
			s.nsIdx++
		}
		if s.nsIdx >= len(s.nsNodes) {
			s.done = true
		}
		return n
	}
	for n < len(buf) {
		buf[n] = s.cur
		n++
		s.advance()
		if s.done {
			break
		}
	}
	return n
}

// Detach drops the stepper's document, visited set and namespace prefixes,
// so an idle stepper kept for reuse pins no document. The stepper reads as
// exhausted until the next Reset.
func (s *Stepper) Detach() {
	s.doc, s.vis, s.done = nil, nil, true
	clear(s.nsSeen)
}

// Next returns the next node on the axis, or false when exhausted.
func (s *Stepper) Next() (NodeID, bool) {
	if s.done {
		return NilNode, false
	}
	if s.axis == AxisNamespace {
		if s.nsIdx >= len(s.nsNodes) {
			s.done = true
			return NilNode, false
		}
		n := s.nsNodes[s.nsIdx]
		s.nsIdx++
		return n, true
	}
	n := s.cur
	s.advance()
	return n, true
}

func (s *Stepper) advance() {
	s.move()
	if s.vis != nil {
		s.visit()
	}
	if s.cur == NilNode {
		s.done = true
	}
}

// move steps cur to the next node of the plain axis walk.
func (s *Stepper) move() {
	d := s.doc
	switch s.axis {
	case AxisSelf, AxisParent:
		s.cur = NilNode
	case AxisChild, AxisFollowingSibling:
		if s.back {
			s.moveBack()
			return
		}
		s.cur = d.NextSibling(s.cur)
	case AxisPrecedingSibling:
		if s.back {
			s.moveBack()
			return
		}
		s.cur = d.PrevSibling(s.cur)
	case AxisAncestor, AxisAncestorOrSelf:
		s.cur = d.Parent(s.cur)
	case AxisAttribute:
		s.cur = d.NextAttr(s.cur)
	case AxisDescendant, AxisDescendantOrSelf:
		s.cur = s.preorderNextWithin(s.cur, s.ctx)
	case AxisFollowing:
		s.cur = s.preorderNext(s.cur)
	case AxisPreceding:
		s.cur = s.precedingPrev(s.cur)
	}
}

// visit applies the visited set to the node a visited-set walk just
// reached: marked nodes end the walk, are stepped over with their subtree,
// or are skipped one by one (test-and-mark: preceding is not closed under
// the pruning rule); the first unmarked node is marked and is next.
func (s *Stepper) visit() {
	for s.cur != NilNode && s.vis.Has(s.cur) {
		s.Pruned++
		switch s.axis {
		case AxisAncestor, AxisAncestorOrSelf, AxisParent,
			AxisFollowing, AxisFollowingSibling, AxisPrecedingSibling:
			s.cur = NilNode
		case AxisDescendant, AxisDescendantOrSelf:
			s.cur = s.skipWithin(s.cur, s.ctx)
		default:
			s.Dropped++
			s.move()
		}
	}
	if s.cur != NilNode {
		s.vis.Mark(s.cur)
	}
}

// siblingStart returns the first node of the (following|preceding)-sibling
// axis. Attribute and namespace nodes have no siblings.
func (s *Stepper) siblingStart(forward bool) NodeID {
	switch s.doc.Kind(s.ctx) {
	case KindAttribute, KindNamespace:
		return NilNode
	}
	if forward {
		return s.doc.NextSibling(s.ctx)
	}
	return s.doc.PrevSibling(s.ctx)
}

// descend returns the first descendant (preorder) of id, or NilNode.
func (s *Stepper) descend(id NodeID) NodeID { return s.doc.FirstChild(id) }

// preorderNextWithin advances cur in preorder without leaving the subtree
// rooted at stop.
func (s *Stepper) preorderNextWithin(cur, stop NodeID) NodeID {
	if c := s.doc.FirstChild(cur); c != NilNode {
		return c
	}
	return s.skipWithin(cur, stop)
}

// skipWithin advances cur in preorder past its own subtree without leaving
// the subtree rooted at stop.
func (s *Stepper) skipWithin(cur, stop NodeID) NodeID {
	d := s.doc
	for cur != stop && cur != NilNode {
		if sib := d.NextSibling(cur); sib != NilNode {
			return sib
		}
		cur = d.Parent(cur)
	}
	return NilNode
}

// preorderNext advances cur in document-wide preorder (used by following).
func (s *Stepper) preorderNext(cur NodeID) NodeID {
	d := s.doc
	if c := d.FirstChild(cur); c != NilNode {
		return c
	}
	for cur != NilNode {
		if sib := d.NextSibling(cur); sib != NilNode {
			return sib
		}
		cur = d.Parent(cur)
	}
	return NilNode
}

// followingStart returns the first node of the following axis: the next
// node in document order that is not a descendant of the context node. For
// attribute and namespace nodes, document order places them before the
// element's children, so the following axis starts at the owner element's
// first child.
func (s *Stepper) followingStart() NodeID {
	d := s.doc
	cur := s.ctx
	switch d.Kind(cur) {
	case KindAttribute, KindNamespace:
		owner := d.Parent(cur)
		if owner == NilNode {
			return NilNode
		}
		if c := d.FirstChild(owner); c != NilNode {
			return c
		}
		cur = owner
	}
	for cur != NilNode {
		if sib := d.NextSibling(cur); sib != NilNode {
			return sib
		}
		cur = d.Parent(cur)
	}
	return NilNode
}

// initPreceding prepares the reverse preorder walk for the preceding axis,
// which excludes ancestors of the context node.
func (s *Stepper) initPreceding() {
	d := s.doc
	anchor := s.ctx
	switch d.Kind(anchor) {
	case KindAttribute, KindNamespace:
		anchor = d.Parent(anchor)
		if anchor == NilNode {
			s.cur = NilNode
			return
		}
	}
	if s.anchorAncestors == nil {
		s.anchorAncestors = make(map[NodeID]struct{}, 8)
	} else {
		clear(s.anchorAncestors)
	}
	for p := d.Parent(anchor); p != NilNode; p = d.Parent(p) {
		s.anchorAncestors[p] = struct{}{}
	}
	s.cur = s.precedingPrev(anchor)
	if s.cur == NilNode {
		s.done = true
	}
}

// precedingPrev steps backwards in reverse document order, skipping
// ancestors of the context node.
func (s *Stepper) precedingPrev(cur NodeID) NodeID {
	d := s.doc
	for {
		if sib := d.PrevSibling(cur); sib != NilNode {
			// Deepest last descendant of the previous sibling.
			n := sib
			for c := d.LastChild(n); c != NilNode; c = d.LastChild(n) {
				n = c
			}
			return n
		}
		cur = d.Parent(cur)
		if cur == NilNode {
			return NilNode
		}
		if _, skip := s.anchorAncestors[cur]; !skip {
			// Parent reached by walking up is always an ancestor of the
			// starting node, but after descending into a previous subtree
			// the walk-up targets are not ancestors of the *context*.
			return cur
		}
	}
}

// initNamespace materializes the in-scope namespace set of an element
// context: the nearest non-shadowed declaration per prefix along
// ancestor-or-self, plus the implicit xml prefix. See DESIGN.md "Known
// deviations" for how this differs from per-element namespace node
// identity.
func (s *Stepper) initNamespace() {
	d := s.doc
	s.nsNodes = s.nsNodes[:0]
	s.nsIdx = 0
	if d.Kind(s.ctx) != KindElement {
		s.done = true
		return
	}
	if s.nsSeen == nil {
		s.nsSeen = make(map[string]struct{}, 4)
	} else {
		clear(s.nsSeen)
	}
	for e := s.ctx; e != NilNode; e = d.Parent(e) {
		if d.Kind(e) != KindElement {
			break
		}
		for ns := d.FirstNSDecl(e); ns != NilNode; ns = d.NextNSDecl(ns) {
			prefix := d.LocalName(ns)
			if _, shadowed := s.nsSeen[prefix]; shadowed {
				continue
			}
			s.nsSeen[prefix] = struct{}{}
			if d.Value(ns) == "" {
				continue // xmlns="" undeclares the default namespace
			}
			if s.vis != nil {
				if s.vis.Has(ns) {
					s.Pruned++
					s.Dropped++
					continue
				}
				s.vis.Mark(ns)
			}
			s.nsNodes = append(s.nsNodes, ns)
		}
	}
	if _, ok := s.nsSeen["xml"]; !ok {
		// The xml prefix is implicitly in scope; it has no declaration
		// record, so we cannot yield a node for it without one in the
		// document. Builders insert one on the root (see XML parser).
	}
	if len(s.nsNodes) == 0 {
		s.done = true
	}
}
