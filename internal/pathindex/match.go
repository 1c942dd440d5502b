// Path-summary matching: turning a chain of location steps into summary
// paths, with the side condition under which the merged index node lists
// are byte-identical to what the axis-walk plan would produce.
//
// The substitution rule. Let S₀..S_{k-1} be the context path-sets of the
// steps (S₀ = {document path}). Node nesting follows path nesting: x is an
// ancestor of y only if path(x) is a summary ancestor of path(y). If every
// Sᵢ is prefix-free — no member path is a summary ancestor of another — the
// instance context sets are nest-free, so each child/descendant step over
// them enumerates disjoint regions in document order and its output is
// document-ordered and duplicate-free. Interleaved duplicate eliminations
// are then no-ops, and the final output equals the document-order merge of
// the matched paths' node lists exactly: same set, same order, no
// duplicates. The FINAL matched set may nest freely (it is only emitted,
// never stepped from). When any intermediate set fails the check the match
// is rejected and the caller keeps the navigation plan.
package pathindex

import (
	"encoding/binary"
	"slices"
	"strings"
	"sync"

	"natix/internal/dom"
)

// Step is one location step of a candidate chain. Only the downward axes
// child, descendant and descendant-or-self with element name tests (name,
// *, prefix:*) are matchable; anything else fails the match.
type Step struct {
	Axis dom.Axis
	Test dom.NodeTest
}

// String renders the step in XPath syntax.
func (s Step) String() string { return s.Axis.String() + "::" + s.Test.String() }

// FormatSteps renders a chain for diagnostics ("descendant::a/child::b").
func FormatSteps(steps []Step) string {
	parts := make([]string, len(steps))
	for i, s := range steps {
		parts[i] = s.String()
	}
	return strings.Join(parts, "/")
}

// Match is the result of matching a step chain against the summary: the
// matched final paths with the exact result cardinality and the estimated
// enumeration cost of the axis walk the chain replaces. A Match is safe for
// concurrent use.
type Match struct {
	ix    *Index
	paths []int32

	// merge builds nodes, the document-order merge of a multi-path match,
	// at most once.
	merge sync.Once
	nodes []dom.NodeID

	// Count is the exact number of result nodes (the sum of the matched
	// paths' cardinalities).
	Count int64
	// Walk estimates how many nodes an axis-walk evaluation of the same
	// chain enumerates: for every step, the child lists or subtrees of its
	// context nodes, including non-element nodes the name test rejects.
	Walk int64
}

// MatchSteps matches a root-anchored step chain against the summary.
// It returns ok=false when a step uses an unsupported axis or test, or
// when an intermediate context set is not prefix-free (see the package
// comment: the substitution would no longer be order-exact). A match with
// Count 0 is valid — the chain provably selects nothing.
func (ix *Index) MatchSteps(steps []Step) (*Match, bool) {
	if len(steps) == 0 {
		return nil, false
	}
	m := &Match{ix: ix}
	ctx := []int32{0}
	for i, s := range steps {
		if i > 0 && !ix.prefixFree(ctx) {
			return nil, false
		}
		next, walk, ok := ix.stepPaths(ctx, s)
		if !ok {
			return nil, false
		}
		m.Walk += walk
		ctx = next
	}
	m.paths = ctx
	for _, p := range ctx {
		m.Count += int64(len(ix.paths[p].Nodes))
	}
	return m, true
}

// memoCap bounds the match memo of one index. A server takes arbitrary
// queries, so the memo may not grow with them; when it is full it is
// cleared and refills with the chains still in use.
const memoCap = 256

// ChainKey encodes a step chain as its Match memo key. The encoding is
// injective: per step the axis and test kind bytes, then the test's URI,
// local name and PI target, each length-prefixed. Rendered XPath would not
// do: a namespace URI may contain "}" or "/", so the two-step chain
// descendant::{a}b/child::{x}* renders exactly like the one descendant step
// whose prefix:* test names the URI "a}b/child::{x".
func ChainKey(steps []Step) string {
	var b []byte
	for _, s := range steps {
		b = append(b, byte(s.Axis), byte(s.Test.Kind))
		for _, f := range [...]string{s.Test.URI, s.Test.Local, s.Test.Target} {
			b = binary.AppendUvarint(b, uint64(len(f)))
			b = append(b, f...)
		}
	}
	return string(b)
}

// Match is MatchSteps memoized on the index: the summary walk runs once per
// index and chain, not once per call. key must be ChainKey(steps); callers
// compute it once per chain. Refusals are memoized too. The returned Match
// is shared by every caller of the same chain and must be treated as
// read-only.
func (ix *Index) Match(key string, steps []Step) (*Match, bool) {
	ix.mu.Lock()
	m, hit := ix.memo[key]
	ix.mu.Unlock()
	if !hit {
		// Walk unlocked. Callers racing on one chain each store an equal
		// match; the last store wins, and every returned match is valid.
		m, _ = ix.MatchSteps(steps) // nil on refusal
		ix.mu.Lock()
		if ix.memo == nil || len(ix.memo) >= memoCap {
			ix.memo = make(map[string]*Match)
		}
		ix.memo[key] = m
		ix.mu.Unlock()
	}
	return m, m != nil
}

// stepPaths advances a context path-set through one step, returning the
// matching paths (ascending, duplicate-free) and the number of nodes an
// axis walk would enumerate performing the step over the context nodes.
func (ix *Index) stepPaths(ctx []int32, s Step) (out []int32, walk int64, ok bool) {
	if !indexableTest(s.Test) {
		return nil, 0, false
	}
	in := make([]bool, len(ix.paths))
	for _, p := range ctx {
		in[p] = true
	}
	switch s.Axis {
	case dom.AxisChild:
		for i := int32(1); i < int32(len(ix.paths)); i++ {
			p := &ix.paths[i]
			if !in[p.Parent] {
				continue
			}
			walk += int64(len(p.Nodes))
			if ix.testMatches(s.Test, i) {
				out = append(out, i)
			}
		}
		for _, p := range ctx {
			walk += ix.paths[p].Others
		}
	case dom.AxisDescendant, dom.AxisDescendantOrSelf:
		for _, p := range ctx {
			walk += ix.subCount[p] + ix.subOther[p]
			if s.Axis == dom.AxisDescendantOrSelf {
				walk += int64(len(ix.paths[p].Nodes))
			}
		}
		for i := int32(1); i < int32(len(ix.paths)); i++ {
			if !ix.testMatches(s.Test, i) {
				continue
			}
			start := ix.paths[i].Parent
			if s.Axis == dom.AxisDescendantOrSelf {
				start = i
			}
			for a := start; a >= 0; a = ix.paths[a].Parent {
				if in[a] {
					out = append(out, i)
					break
				}
			}
		}
	default:
		return nil, 0, false
	}
	return out, walk, true
}

// indexableTest reports whether the node test is answerable from the
// summary: element name tests only. node()/text()/comment()/pi() tests
// admit nodes the summary does not classify.
func indexableTest(t dom.NodeTest) bool {
	switch t.Kind {
	case dom.TestName, dom.TestAnyName, dom.TestNSName:
		return true
	}
	return false
}

// testMatches applies an element name test to a summary path. The document
// path (index 0) matches no name test.
func (ix *Index) testMatches(t dom.NodeTest, path int32) bool {
	if path == 0 {
		return false
	}
	p := &ix.paths[path]
	switch t.Kind {
	case dom.TestAnyName:
		return true
	case dom.TestNSName:
		return p.URI == t.URI
	case dom.TestName:
		return p.Local == t.Local && p.URI == t.URI
	}
	return false
}

// prefixFree reports whether no member of the path set is a summary
// ancestor of another member.
func (ix *Index) prefixFree(set []int32) bool {
	if len(set) < 2 {
		return true
	}
	in := make([]bool, len(ix.paths))
	for _, p := range set {
		in[p] = true
	}
	for _, p := range set {
		for a := ix.paths[p].Parent; a >= 0; a = ix.paths[a].Parent {
			if in[a] {
				return false
			}
		}
	}
	return true
}

// Nodes returns the matched nodes in document order, duplicate-free: the
// merge of the matched paths' node lists. A multi-path merge is built on
// the first call and kept with the Match; callers must treat the slice as
// read-only.
func (m *Match) Nodes() []dom.NodeID {
	switch len(m.paths) {
	case 0:
		return nil
	case 1:
		return m.ix.paths[m.paths[0]].Nodes
	}
	m.merge.Do(func() {
		ids := make([]dom.NodeID, 0, m.Count)
		for _, p := range m.paths {
			ids = append(ids, m.ix.paths[p].Nodes...)
		}
		slices.Sort(ids)
		m.nodes = ids
	})
	return m.nodes
}
