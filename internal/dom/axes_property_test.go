package dom

import (
	"fmt"
	"math/rand"
	"testing"
)

// This file checks every axis stepper against a brute-force evaluation of
// the axis definitions from the XPath recommendation, over randomly built
// documents: the stepper must produce exactly the defining node set, in
// axis order.

// buildRandom constructs a random document mixing all node kinds.
func buildRandom(rng *rand.Rand, maxNodes int) *MemDoc {
	b := NewBuilder()
	count := 0
	var build func(depth int)
	build = func(depth int) {
		for count < maxNodes && rng.Intn(3) != 0 {
			count++
			switch rng.Intn(7) {
			case 0:
				b.Text(fmt.Sprintf("t%d", count))
			case 1:
				b.Comment("c")
			case 2:
				b.ProcInstr("pi", "d")
			default:
				b.StartElement("", fmt.Sprintf("e%d", rng.Intn(4)), "")
				for a := 0; a < rng.Intn(3); a++ {
					b.Attr("", fmt.Sprintf("a%d", a), "", "v")
				}
				if rng.Intn(3) == 0 {
					b.NSDecl(fmt.Sprintf("p%d", rng.Intn(2)), "urn:x")
				}
				if depth < 5 {
					build(depth + 1)
				}
				b.EndElement()
			}
		}
	}
	b.StartElement("", "root", "")
	build(0)
	b.EndElement()
	return b.Doc()
}

// treeNodes returns all non-attribute, non-namespace nodes in document
// order (the nodes that participate in the sibling/descendant axes).
func treeNodes(d Document) []NodeID {
	var out []NodeID
	for id := NodeID(1); int(id) <= d.NodeCount(); id++ {
		switch d.Kind(id) {
		case KindAttribute, KindNamespace:
		default:
			out = append(out, id)
		}
	}
	return out
}

func isAncestorOf(d Document, anc, n NodeID) bool {
	for p := d.Parent(n); p != NilNode; p = d.Parent(p) {
		if p == anc {
			return true
		}
	}
	return false
}

// brute computes the axis result from first principles.
func brute(d Document, ctx NodeID, axis Axis) []NodeID {
	all := treeNodes(d)
	ctxKind := d.Kind(ctx)
	// Document order anchoring for following/preceding from attribute and
	// namespace nodes: they sit between their element and its children.
	var out []NodeID
	switch axis {
	case AxisSelf:
		return []NodeID{ctx}
	case AxisParent:
		if p := d.Parent(ctx); p != NilNode {
			return []NodeID{p}
		}
		return nil
	case AxisAncestor, AxisAncestorOrSelf:
		if axis == AxisAncestorOrSelf {
			out = append(out, ctx)
		}
		for p := d.Parent(ctx); p != NilNode; p = d.Parent(p) {
			out = append(out, p)
		}
		return out
	case AxisChild:
		for c := d.FirstChild(ctx); c != NilNode; c = d.NextSibling(c) {
			out = append(out, c)
		}
		return out
	case AxisDescendant, AxisDescendantOrSelf:
		if axis == AxisDescendantOrSelf {
			out = append(out, ctx)
		}
		for _, n := range all {
			if isAncestorOf(d, ctx, n) {
				out = append(out, n)
			}
		}
		return out
	case AxisFollowingSibling, AxisPrecedingSibling:
		if ctxKind == KindAttribute || ctxKind == KindNamespace {
			return nil
		}
		p := d.Parent(ctx)
		if p == NilNode {
			return nil
		}
		for c := d.FirstChild(p); c != NilNode; c = d.NextSibling(c) {
			if axis == AxisFollowingSibling && c > ctx {
				out = append(out, c)
			}
			if axis == AxisPrecedingSibling && c < ctx {
				out = append(out, c)
			}
		}
		if axis == AxisPrecedingSibling {
			reverse(out)
		}
		return out
	case AxisFollowing:
		// All tree nodes after ctx in document order, excluding
		// descendants. For attribute/namespace context: after the node in
		// document order, which includes the owner's children.
		for _, n := range all {
			if n > ctx && !isAncestorOf(d, ctx, n) && n != ctx {
				out = append(out, n)
			}
		}
		return out
	case AxisPreceding:
		anchor := ctx
		if ctxKind == KindAttribute || ctxKind == KindNamespace {
			anchor = d.Parent(ctx)
		}
		for _, n := range all {
			if n < anchor && !isAncestorOf(d, n, anchor) {
				out = append(out, n)
			}
		}
		reverse(out)
		return out
	case AxisAttribute:
		for a := d.FirstAttr(ctx); a != NilNode; a = d.NextAttr(a) {
			out = append(out, a)
		}
		return out
	}
	return nil
}

func reverse(s []NodeID) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

func TestAxesAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	axes := []Axis{
		AxisSelf, AxisParent, AxisAncestor, AxisAncestorOrSelf, AxisChild,
		AxisDescendant, AxisDescendantOrSelf, AxisFollowingSibling,
		AxisPrecedingSibling, AxisFollowing, AxisPreceding, AxisAttribute,
	}
	for iter := 0; iter < 12; iter++ {
		d := buildRandom(rng, 60)
		for id := NodeID(1); int(id) <= d.NodeCount(); id++ {
			if d.Kind(id) == KindNamespace {
				continue // shared-record semantics; covered separately
			}
			for _, axis := range axes {
				want := brute(d, id, axis)
				got := collect(d, id, axis)
				if len(got) != len(want) {
					t.Fatalf("iter %d node #%d (%s) axis %s: got %v, want %v\ndoc: %s",
						iter, id, d.Kind(id), axis, got, want, SerializeString(d))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("iter %d node #%d axis %s: got %v, want %v",
							iter, id, axis, got, want)
					}
				}
			}
		}
	}
}

// TestFollowingOfAttributeBrute pins the document-order interpretation for
// attribute contexts: following starts inside the owner element.
func TestFollowingOfAttributeBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 8; iter++ {
		d := buildRandom(rng, 50)
		for id := NodeID(1); int(id) <= d.NodeCount(); id++ {
			if d.Kind(id) != KindAttribute {
				continue
			}
			got := collect(d, id, AxisFollowing)
			want := brute(d, id, AxisFollowing)
			if len(got) != len(want) {
				t.Fatalf("attr #%d following: got %d nodes, want %d", id, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("attr #%d following: got %v, want %v", id, got, want)
				}
			}
		}
	}
}

// TestVisitedWalkAgainstDedup checks visited-set walks (ResetVisited) on
// every axis over random documents with attributes, namespaces and text.
// A context sequence with duplicates, in arbitrary order and across two
// documents, is walked with one visited set per document: the walks must
// yield exactly the first occurrences of the independent plain walks,
// element for element and in order, and every marked node the pruning
// rule probes must be counted once in Pruned.
func TestVisitedWalkAgainstDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	stops := map[Axis]bool{
		AxisAncestor: true, AxisAncestorOrSelf: true, AxisParent: true,
		AxisFollowing: true, AxisFollowingSibling: true, AxisPrecedingSibling: true,
	}
	var total [AxisCount]int64
	for iter := 0; iter < 30; iter++ {
		docs := []Document{buildRandom(rng, 40+rng.Intn(60)), buildRandom(rng, 40+rng.Intn(60))}
		type ctx struct {
			doc int
			id  NodeID
		}
		var ctxs []ctx
		for i := 0; i < 25; i++ {
			if len(ctxs) > 0 && rng.Intn(4) == 0 {
				ctxs = append(ctxs, ctxs[rng.Intn(len(ctxs))]) // a duplicate
				continue
			}
			k := rng.Intn(2)
			ctxs = append(ctxs, ctx{k, NodeID(1 + rng.Intn(docs[k].NodeCount()))})
		}
		for a := 0; a < AxisCount; a++ {
			axis := Axis(a)
			st := NewStepper(axis)
			sets := []*Visited{NewVisited(docs[0]), NewVisited(docs[1])}
			seen := []map[NodeID]bool{{}, {}}
			batched := iter%2 == 1
			for ci, c := range ctxs {
				d, m := docs[c.doc], seen[c.doc]
				// Expected: the plain walk's unseen nodes, and the probes
				// the pruning rule makes on the seen ones.
				var want []NodeID
				var probes, drops int64
				plain := collect(d, c.id, axis)
				for _, n := range plain {
					if !m[n] {
						want = append(want, n)
					}
				}
				switch {
				case stops[axis]:
					for _, n := range plain {
						if m[n] {
							probes = 1
							break
						}
					}
				case axis == AxisDescendant && m[c.id]:
					probes = 1
				case axis == AxisDescendant || axis == AxisDescendantOrSelf:
					// One probe per maximal marked subtree of the walk.
					for _, n := range plain {
						top := m[n]
						for p := d.Parent(n); top && n != c.id && p != c.id; p = d.Parent(p) {
							top = !m[p]
						}
						if top && n != c.id && axis == AxisDescendantOrSelf && m[c.id] {
							top = false
						}
						if top {
							probes++
						}
					}
				default:
					for _, n := range plain {
						if m[n] {
							probes++
						}
					}
					drops = probes
				}
				for _, n := range plain {
					m[n] = true
				}

				st.ResetVisited(d, c.id, sets[c.doc])
				var got []NodeID
				if batched {
					buf := make([]NodeID, 3)
					for k := st.NextBatch(buf); k > 0; k = st.NextBatch(buf) {
						got = append(got, buf[:k]...)
					}
				} else {
					for n, ok := st.Next(); ok; n, ok = st.Next() {
						got = append(got, n)
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("iter %d axis %s context %d (%d #%d %s): got %v, want %v (plain %v)",
						iter, axis, ci, c.doc, c.id, d.Kind(c.id), got, want, plain)
				}
				if st.Pruned != probes || st.Dropped != drops {
					t.Fatalf("iter %d axis %s context %d (%d #%d): pruned %d dropped %d, want %d and %d",
						iter, axis, ci, c.doc, c.id, st.Pruned, st.Dropped, probes, drops)
				}
				st.Pruned, st.Dropped = 0, 0
				total[axis] += probes
			}
		}
	}
	for a, n := range total {
		if n == 0 {
			t.Errorf("axis %s: no walk met a marked node", Axis(a))
		}
	}
}
