package pathindex

import (
	"testing"

	"natix/internal/dom"
)

// sameNodes fails unless the match selects exactly the walk's nodes, in the
// walk's order.
func sameNodes(t *testing.T, what string, m *Match, want []dom.NodeID) {
	t.Helper()
	got := m.Nodes()
	if len(got) != len(want) || m.Count != int64(len(want)) {
		t.Fatalf("%s: %d nodes (Count %d), walk got %d", what, len(got), m.Count, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: node %d is %d, walk got %d", what, i, got[i], want[i])
		}
	}
}

// TestMatchMemoKeysAreInjective: the two-step chain descendant::{a}b /
// child::{x}* and the one-step chain descendant::{a}b/child::{x}* — a
// prefix:* test whose namespace URI is "a}b/child::{x" — render the same,
// but they are different chains. On one index each must get its own memo
// entry and its own answer, on the first call and on the memo hit.
func TestMatchMemoKeysAreInjective(t *testing.T) {
	d := mustParse(t, `<r xmlns:a="a" xmlns:x="x" xmlns:z="a}b/child::{x">`+
		`<a:b><x:c/><x:d/></a:b><z:e/><z:f><x:c/></z:f><z:g/></r>`)
	ix := Build(d)
	twoSteps := []Step{
		{Axis: dom.AxisDescendant, Test: dom.NameTest("a", "b")},
		{Axis: dom.AxisChild, Test: dom.NodeTest{Kind: dom.TestNSName, URI: "x"}},
	}
	oneStep := []Step{
		{Axis: dom.AxisDescendant, Test: dom.NodeTest{Kind: dom.TestNSName, URI: "a}b/child::{x"}},
	}
	if a, b := FormatSteps(twoSteps), FormatSteps(oneStep); a != b {
		t.Fatalf("renderings differ (%q, %q): the pair no longer collides", a, b)
	}
	if ChainKey(twoSteps) == ChainKey(oneStep) {
		t.Fatal("ChainKey collides on the Clark-notation pair")
	}
	for round := 0; round < 2; round++ { // round 1 answers from the memo
		for _, chain := range [][]Step{twoSteps, oneStep} {
			m, ok := ix.Match(ChainKey(chain), chain)
			if !ok {
				t.Fatalf("round %d: %d-step chain refused", round, len(chain))
			}
			sameNodes(t, FormatSteps(chain), m, walkChain(d, chain))
		}
	}
	if len(ix.memo) != 2 {
		t.Fatalf("memo holds %d entries, want 2", len(ix.memo))
	}
}

// TestMatchMemoizesHitsAndRefusals: a repeated chain returns the identical
// Match, and a refused chain is refused from the memo without a walk.
func TestMatchMemoizesHitsAndRefusals(t *testing.T) {
	d := mustParse(t, `<r><a><a><b/></a><b/></a><a><b/></a></r>`)
	ix := Build(d)
	hit := steps("descendant", "a")
	m1, ok1 := ix.Match(ChainKey(hit), hit)
	m2, ok2 := ix.Match(ChainKey(hit), hit)
	if !ok1 || !ok2 || m1 != m2 {
		t.Fatalf("repeated chain: ok %v/%v, same Match %v", ok1, ok2, m1 == m2)
	}
	refused := steps("descendant", "a", "child", "b") // nested intermediate a's
	for i := 0; i < 2; i++ {
		if m, ok := ix.Match(ChainKey(refused), refused); ok || m != nil {
			t.Fatalf("call %d: nested intermediate context matched", i)
		}
	}
	if m, cached := ix.memo[ChainKey(refused)]; !cached || m != nil {
		t.Fatalf("refusal not memoized (cached %v)", cached)
	}
}

// TestMatchMemoBounded runs more distinct chains than the memo holds, twice
// over, on one index: every answer stays the walk's, the memo never holds
// more than memoCap entries, and it is cleared when full.
func TestMatchMemoBounded(t *testing.T) {
	d := mustParse(t, `<r><e0><e1/><e2><e3/></e2></e0><e1><e0/><e3/></e1><e2/></r>`)
	ix := Build(d)
	axes := []string{"child", "descendant", "descendant-or-self"}
	names := []string{"r", "e0", "e1", "e2", "e3", "*"}
	var oneSteps [][]Step
	for _, a := range axes {
		for _, n := range names {
			s := steps(a, n)
			if n == "*" {
				s[0].Test = dom.NodeTest{Kind: dom.TestAnyName}
			}
			oneSteps = append(oneSteps, s)
		}
	}
	var chains [][]Step
	for _, a := range oneSteps {
		chains = append(chains, a)
		for _, b := range oneSteps {
			chains = append(chains, []Step{a[0], b[0]})
		}
	}
	if len(chains) <= memoCap {
		t.Fatalf("%d chains do not exceed the cap %d", len(chains), memoCap)
	}
	cleared := false
	for round := 0; round < 2; round++ {
		for _, chain := range chains {
			before := len(ix.memo)
			m, ok := ix.Match(ChainKey(chain), chain)
			if after := len(ix.memo); after > memoCap {
				t.Fatalf("memo holds %d entries, cap %d", after, memoCap)
			} else if after < before {
				cleared = true
			}
			want, wantOK := ix.MatchSteps(chain)
			if ok != wantOK {
				t.Fatalf("%s: memoized ok=%v, uncached ok=%v", FormatSteps(chain), ok, wantOK)
			}
			if !ok {
				continue
			}
			if m.Walk != want.Walk {
				t.Fatalf("%s: memoized Walk %d, uncached %d", FormatSteps(chain), m.Walk, want.Walk)
			}
			sameNodes(t, FormatSteps(chain), m, walkChain(d, chain))
		}
	}
	if !cleared {
		t.Fatal("memo never cleared")
	}
}
