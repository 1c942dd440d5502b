package pathindex

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"natix/internal/dom"
)

// buildRandom constructs a random document mixing all node kinds, shaped
// like the dom package's axis property-test corpus.
func buildRandom(rng *rand.Rand, maxNodes int) *dom.MemDoc {
	b := dom.NewBuilder()
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

func mustParse(t *testing.T, s string) *dom.MemDoc {
	t.Helper()
	d, err := dom.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestBuildCoversEveryNode checks the summary against the document on
// random documents with attributes, namespaces, text, comments and PIs:
// every element (and the document node) sits in exactly one path's
// ascending node list, under its parent's path and with its own name, and
// each path's Others counts the non-element children of its nodes.
func TestBuildCoversEveryNode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		d := buildRandom(rng, 60)
		ix := Build(d)
		pathOf := make([]int, d.NodeCount()+1) // path index + 1; 0: none
		for i, p := range ix.paths {
			var others int64
			for j, id := range p.Nodes {
				if j > 0 && id <= p.Nodes[j-1] {
					t.Fatalf("round %d: path %d: node list not ascending at %d", round, i, j)
				}
				if pathOf[id] != 0 {
					t.Fatalf("round %d: node %d in paths %d and %d", round, id, pathOf[id]-1, i)
				}
				pathOf[id] = i + 1
				if i > 0 && (d.LocalName(id) != p.Local || pathOf[d.Parent(id)] != int(p.Parent)+1) {
					t.Fatalf("round %d: node %d does not match path %d", round, id, i)
				}
				for c := d.FirstChild(id); c != dom.NilNode; c = d.NextSibling(c) {
					if d.Kind(c) != dom.KindElement {
						others++
					}
				}
			}
			if others != p.Others {
				t.Fatalf("round %d: path %d: Others = %d, children say %d", round, i, p.Others, others)
			}
		}
		for id := dom.NodeID(1); int(id) <= d.NodeCount(); id++ {
			k := d.Kind(id)
			if in := pathOf[id] != 0; in != (k == dom.KindElement || k == dom.KindDocument) {
				t.Fatalf("round %d: node %d (%s): in a path = %v", round, id, k, in)
			}
		}
	}
}

func TestPathSummaryCardinalities(t *testing.T) {
	d := mustParse(t, `<r><a><b/><b/><c>text</c></a><a><b/></a><b/></r>`)
	ix := Build(d)
	// Paths: (doc), /r, /r/a, /r/a/b, /r/a/c, /r/b.
	if got := ix.PathCount(); got != 6 {
		t.Fatalf("PathCount = %d, want 6", got)
	}
	cases := []struct {
		steps []Step
		count int64
	}{
		{steps("child", "r"), 1},
		{steps("child", "r", "child", "a"), 2},
		{steps("child", "r", "child", "a", "child", "b"), 3},
		{steps("descendant", "b"), 4},
		{steps("descendant", "a", "child", "b"), 3},
		{steps("descendant", "c"), 1},
		{steps("descendant", "nope"), 0},
	}
	for _, c := range cases {
		m, ok := ix.MatchSteps(c.steps)
		if !ok {
			t.Fatalf("%s: no match", FormatSteps(c.steps))
		}
		if m.Count != c.count {
			t.Errorf("%s: Count = %d, want %d", FormatSteps(c.steps), m.Count, c.count)
		}
		if int64(len(m.Nodes())) != c.count {
			t.Errorf("%s: len(Nodes) = %d, want %d", FormatSteps(c.steps), len(m.Nodes()), c.count)
		}
	}
}

// steps builds a chain from (axis, name) string pairs.
func steps(parts ...string) []Step {
	var out []Step
	for i := 0; i+1 < len(parts); i += 2 {
		var axis dom.Axis
		switch parts[i] {
		case "child":
			axis = dom.AxisChild
		case "descendant":
			axis = dom.AxisDescendant
		case "descendant-or-self":
			axis = dom.AxisDescendantOrSelf
		default:
			panic("bad axis " + parts[i])
		}
		out = append(out, Step{Axis: axis, Test: dom.NameTest("", parts[i+1])})
	}
	return out
}

// TestMatchRejectsNestedIntermediateContext: with <a> elements nested in
// <a> elements, an intermediate context on path a is not prefix-free, so
// the substitution (which would lose the context-major order and the
// duplicate multiplicity structure) must be refused. As the final step the
// same nesting is fine.
func TestMatchRejectsNestedIntermediateContext(t *testing.T) {
	d := mustParse(t, `<r><a><a><b/></a><b/></a></r>`)
	ix := Build(d)
	if _, ok := ix.MatchSteps(steps("descendant", "a", "child", "b")); ok {
		t.Fatal("nested intermediate context matched; substitution would not be order-exact")
	}
	m, ok := ix.MatchSteps(steps("descendant", "a"))
	if !ok || m.Count != 2 {
		t.Fatalf("final-step nesting should match (ok=%v count=%d)", ok, m.Count)
	}
	// Disjoint a's: prefix-free, so the chain matches.
	d2 := mustParse(t, `<r><a><b/></a><a><b/><b/></a></r>`)
	ix2 := Build(d2)
	m2, ok := ix2.MatchSteps(steps("descendant", "a", "child", "b"))
	if !ok || m2.Count != 3 {
		t.Fatalf("disjoint contexts should match (ok=%v count=%d)", ok, m2.Count)
	}
}

func TestMatchRejectsUnsupported(t *testing.T) {
	d := mustParse(t, `<r><a/></r>`)
	ix := Build(d)
	if _, ok := ix.MatchSteps(nil); ok {
		t.Error("empty chain matched")
	}
	if _, ok := ix.MatchSteps([]Step{{Axis: dom.AxisParent, Test: dom.NameTest("", "r")}}); ok {
		t.Error("parent axis matched")
	}
	if _, ok := ix.MatchSteps([]Step{{Axis: dom.AxisChild, Test: dom.NodeTest{Kind: dom.TestText}}}); ok {
		t.Error("text() test matched")
	}
	if _, ok := ix.MatchSteps([]Step{{Axis: dom.AxisChild, Test: dom.AnyNode}}); ok {
		t.Error("node() test matched")
	}
}

// TestMatchedNodesEqualWalk cross-checks matched node lists against a
// brute-force axis walk on random element-rich documents: when MatchSteps
// accepts a chain, Nodes() must equal the walk's result exactly —
// same nodes, same order, no duplicates.
func TestMatchedNodesEqualWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	chains := [][]Step{
		steps("descendant", "e0"),
		steps("descendant", "e1"),
		steps("child", "root", "child", "e2"),
		steps("child", "root", "descendant", "e3"),
		steps("descendant", "e2", "child", "e0"),
		steps("descendant-or-self", "e1"),
		{{Axis: dom.AxisDescendant, Test: dom.NodeTest{Kind: dom.TestAnyName}}},
	}
	accepted := 0
	for round := 0; round < 40; round++ {
		d := buildRandom(rng, 70)
		ix := Build(d)
		for _, chain := range chains {
			m, ok := ix.MatchSteps(chain)
			if !ok {
				continue
			}
			accepted++
			want := walkChain(d, chain)
			got := m.Nodes()
			if len(got) != len(want) {
				t.Fatalf("round %d %s: %d nodes, walk got %d", round, FormatSteps(chain), len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("round %d %s: node %d is %d, walk got %d", round, FormatSteps(chain), i, got[i], want[i])
				}
			}
			if m.Count != int64(len(want)) {
				t.Fatalf("round %d %s: Count=%d, walk got %d", round, FormatSteps(chain), m.Count, len(want))
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no chain accepted on any document; property vacuous")
	}
}

// walkChain evaluates a chain by stepping axes from the document node, with
// duplicate elimination and document-order sorting after every step — the
// XPath semantics the navigation plans implement.
func walkChain(d dom.Document, chain []Step) []dom.NodeID {
	ctx := []dom.NodeID{d.Root()}
	for _, s := range chain {
		seen := map[dom.NodeID]bool{}
		var next []dom.NodeID
		st := dom.NewStepper(s.Axis)
		for _, c := range ctx {
			st.Reset(d, c)
			for {
				id, ok := st.Next()
				if !ok {
					break
				}
				if s.Test.Matches(d, id, dom.KindElement) && !seen[id] {
					seen[id] = true
					next = append(next, id)
				}
			}
		}
		// Document order: NodeIDs order the document.
		for i := 1; i < len(next); i++ {
			for j := i; j > 0 && next[j] < next[j-1]; j-- {
				next[j], next[j-1] = next[j-1], next[j]
			}
		}
		ctx = next
	}
	return ctx
}

// TestRegistryBuildsOncePerDoc: For builds an in-memory document's index
// once and hands every caller that one; another document gets its own.
func TestRegistryBuildsOncePerDoc(t *testing.T) {
	d := mustParse(t, `<r><a/></r>`)
	ix1 := For(d)
	ix2 := For(d)
	if ix1 == nil || ix1 != ix2 {
		t.Fatalf("For returned distinct indexes: %p %p", ix1, ix2)
	}
	if ix3 := For(mustParse(t, `<r><a/></r>`)); ix3 == nil || ix3 == ix1 {
		t.Fatalf("a second document shares the first one's index: %p", ix3)
	}
}

// TestIndexDiesWithDocument: the index For builds for an in-memory
// document is held by that document alone, so it is collected with it.
func TestIndexDiesWithDocument(t *testing.T) {
	freed := make(chan struct{})
	func() {
		d := mustParse(t, `<r><a/><b/></r>`)
		runtime.SetFinalizer(For(d), func(*Index) { close(freed) })
	}()
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the index outlived its document")
}

type fakeProvider struct {
	*dom.MemDoc
	ix *Index
}

func (f *fakeProvider) PathIndex() *Index { return f.ix }

func TestForPrefersProvider(t *testing.T) {
	d := mustParse(t, `<r/>`)
	own := Build(d)
	fp := &fakeProvider{MemDoc: d, ix: own}
	if got := For(fp); got != own {
		t.Fatalf("For ignored the document's Provider index")
	}
	fp.ix = nil
	if got := For(fp); got != nil {
		t.Fatal("nil Provider index must propagate (fallback signal), not be rebuilt")
	}
}
