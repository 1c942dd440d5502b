package natix

import (
	"fmt"
	"strings"
	"testing"
)

// pathIndexCorpus builds a document where //b is selective enough for the
// index access path to win the cost comparison: sections sections, each with
// filler children and one <b/>.
func pathIndexCorpus(sections int) string {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < sections; i++ {
		fmt.Fprintf(&sb, `<a id="s%d"><c>x</c><c>y</c><c>z</c><d/><d/><b n="%d"/></a>`, i, i)
	}
	sb.WriteString("</r>")
	return sb.String()
}

// runBoth evaluates expr with and without path-index selection and fails on
// any divergence — including node order, which the substitution proof
// guarantees byte-identically.
func runBoth(t *testing.T, xml, expr string) (withIdx, without *Result) {
	t.Helper()
	d, err := ParseDocumentString(xml)
	if err != nil {
		t.Fatal(err)
	}
	qi := MustCompileWith(expr, Options{EnablePathIndex: true})
	qn := MustCompileWith(expr, Options{})
	ri, err := qi.Run(RootNode(d), nil)
	if err != nil {
		t.Fatalf("%s with index: %v", expr, err)
	}
	rn, err := qn.Run(RootNode(d), nil)
	if err != nil {
		t.Fatalf("%s without index: %v", expr, err)
	}
	if !ri.Value.IsNodeSet() || !rn.Value.IsNodeSet() {
		t.Fatalf("%s: non-node-set result", expr)
	}
	if len(ri.Value.Nodes) != len(rn.Value.Nodes) {
		t.Fatalf("%s: %d nodes with index, %d without", expr, len(ri.Value.Nodes), len(rn.Value.Nodes))
	}
	for i := range ri.Value.Nodes {
		if ri.Value.Nodes[i] != rn.Value.Nodes[i] {
			t.Fatalf("%s: node %d differs (order or identity)", expr, i)
		}
	}
	return ri, rn
}

// TestPathIndexScanChosen: on a selective corpus the scan replaces the walk
// — same result, same order, and the axis-step account collapses from
// O(subtree) to (near) zero.
func TestPathIndexScanChosen(t *testing.T) {
	xml := pathIndexCorpus(200)
	ri, rn := runBoth(t, xml, "//b")
	if got := len(ri.Value.Nodes); got != 200 {
		t.Fatalf("//b matched %d nodes", got)
	}
	if rn.Stats.AxisSteps == 0 {
		t.Fatal("navigation run reports no axis steps — test is vacuous")
	}
	if ri.Stats.AxisSteps != 0 {
		t.Fatalf("index run still walked %d axis steps (scan not chosen?)", ri.Stats.AxisSteps)
	}
}

// TestPathIndexExplainAnalyze: the annotated tree names the chosen access
// path with estimated and actual cardinality, and the physical plan marks
// the candidate.
func TestPathIndexExplainAnalyze(t *testing.T) {
	d, err := ParseDocumentString(pathIndexCorpus(200))
	if err != nil {
		t.Fatal(err)
	}
	q := MustCompileWith("//b", Options{EnablePathIndex: true})
	if phys := q.ExplainPhysical(); !strings.Contains(phys, "path-index candidate [descendant::b]") {
		t.Errorf("ExplainPhysical misses the candidate marker:\n%s", phys)
	}
	a, err := q.ExplainAnalyze(t.Context(), RootNode(d), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.Tree, "PathIndexScan[descendant::b]") {
		t.Errorf("analyze tree misses the chosen access path:\n%s", a.Tree)
	}
	if !strings.Contains(a.Tree, "est=200 actual=200") {
		t.Errorf("analyze tree misses est/actual cardinality:\n%s", a.Tree)
	}
}

// TestPathIndexFallbacks: chains the summary refuses (nested intermediate
// context) and chains the cost model rejects both fall back to navigation —
// with identical results and an explain line naming the reason.
func TestPathIndexFallbacks(t *testing.T) {
	nested := `<r><a><a><b/><c/></a><b/></a><b/></r>`
	runBoth(t, nested, "//a/b") // intermediate a-set nests: no-match fallback
	runBoth(t, nested, "/r/a")  // one-node walk: cost fallback
	runBoth(t, nested, "//a//b")
	runBoth(t, nested, "//c")

	d, err := ParseDocumentString(nested)
	if err != nil {
		t.Fatal(err)
	}
	q := MustCompileWith("//a/b", Options{EnablePathIndex: true})
	a, err := q.ExplainAnalyze(t.Context(), RootNode(d), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.Tree, "navigation [descendant::a/child::b]  (no-match)") {
		t.Errorf("analyze tree misses the no-match fallback:\n%s", a.Tree)
	}
	q2 := MustCompileWith("/r/a", Options{EnablePathIndex: true})
	a2, err := q2.ExplainAnalyze(t.Context(), RootNode(d), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a2.Tree, "(cost:") {
		t.Errorf("analyze tree misses the cost fallback:\n%s", a2.Tree)
	}
}

// TestPathIndexAgreesOnQueryMatrix sweeps chain shapes — child chains,
// descendant steps, predicates above the chain, unions, counts — across
// modes and batch settings. Every configuration must agree with plain
// navigation exactly.
func TestPathIndexAgreesOnQueryMatrix(t *testing.T) {
	xml := pathIndexCorpus(60)
	exprs := []string{
		"//b",
		"//d",
		"/r/a/b",
		"/r/a/c",
		"//a/c",
		"//b[@n='7']",
		"//b | //c",
		"count(//b)",
		"//a[b]/c",
		"/r//b",
	}
	d, err := ParseDocumentString(xml)
	if err != nil {
		t.Fatal(err)
	}
	for _, expr := range exprs {
		for _, opt := range []Options{
			{EnablePathIndex: true},
			{EnablePathIndex: true, Mode: Canonical},
			{EnablePathIndex: true, Batch: BatchOff},
			{EnablePathIndex: true, Batch: 3},
		} {
			qi := MustCompileWith(expr, opt)
			base := opt
			base.EnablePathIndex = false
			qn := MustCompileWith(expr, base)
			ri, err := qi.Run(RootNode(d), nil)
			if err != nil {
				t.Fatalf("%s (opt %+v): %v", expr, opt, err)
			}
			rn, err := qn.Run(RootNode(d), nil)
			if err != nil {
				t.Fatalf("%s baseline: %v", expr, err)
			}
			if ri.Value.String() != rn.Value.String() {
				t.Errorf("%s (opt %+v): %q != %q", expr, opt, ri.Value.String(), rn.Value.String())
			}
			if ri.Value.IsNodeSet() {
				for i := range ri.Value.Nodes {
					if ri.Value.Nodes[i] != rn.Value.Nodes[i] {
						t.Errorf("%s (opt %+v): node %d differs", expr, opt, i)
					}
				}
			}
		}
	}
}
