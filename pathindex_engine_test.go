package natix

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"natix/internal/interp"
	"natix/internal/store"
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

// runBoth evaluates expr on d with and without path-index selection and
// fails on any divergence — including node order, which the substitution
// proof guarantees byte-identically.
func runBoth(t *testing.T, d Document, ns map[string]string, expr string) (withIdx, without *Result) {
	t.Helper()
	qi := MustCompileWith(expr, Options{EnablePathIndex: true, Namespaces: ns})
	qn := MustCompileWith(expr, Options{Namespaces: ns})
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

// nsPathIndexCorpus is pathIndexCorpus with a namespaced <p:q/> in every
// section and a <b> that carries a second attribute and a <c> child, so
// every name-test shape and a step above the chain have matches.
func nsPathIndexCorpus(sections int) string {
	var sb strings.Builder
	sb.WriteString(`<r xmlns:p="urn:p">`)
	for i := 0; i < sections; i++ {
		fmt.Fprintf(&sb, `<a id="s%d"><c>x</c><c>y</c><c>z</c><d/><d/><b n="%d" k="1"><c/></b><p:q/></a>`, i, i)
	}
	sb.WriteString("</r>")
	return sb.String()
}

// TestPathIndexScanChosen: on a selective corpus the scan replaces the walk
// for every name-test shape of a root-anchored downward chain — same result,
// same order, and the axis-step account keeps only the steps above the
// chain. A positional predicate on the first step numbers its nodes per
// context, which the chain matcher refuses, so that shape navigates.
func TestPathIndexScanChosen(t *testing.T) {
	d, err := ParseDocumentString(nsPathIndexCorpus(200))
	if err != nil {
		t.Fatal(err)
	}
	ns := map[string]string{"p": "urn:p"}
	cases := []struct {
		expr   string
		chosen bool
		steps  int64 // AxisSteps with the index; navigation's when not chosen
	}{
		{"//b", true, 0},
		{"//*", true, 0},
		{"//p:*", true, 0},
		{"//p:q", true, 0},
		{"/descendant-or-self::b", true, 0},
		{"/descendant::b[@k]/c", true, 600}, // @k: n then k; /c: one child
		{"//b[@n='7']", true, 399},          // @n: n first, then k except on the match
		{"/descendant::b[1]", false, -1},
	}
	for _, c := range cases {
		ri, rn := runBoth(t, d, ns, c.expr)
		if len(rn.Value.Nodes) == 0 {
			t.Fatalf("%s: empty result — row is vacuous", c.expr)
		}
		qi := MustCompileWith(c.expr, Options{EnablePathIndex: true, Namespaces: ns})
		a, err := qi.ExplainAnalyze(t.Context(), RootNode(d), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(a.Tree, "PathIndexScan["); got != c.chosen {
			t.Errorf("%s: PathIndexScan chosen = %v, want %v:\n%s", c.expr, got, c.chosen, a.Tree)
		}
		want := c.steps
		if !c.chosen {
			want = rn.Stats.AxisSteps
		}
		if ri.Stats.AxisSteps != want {
			t.Errorf("%s: %d axis steps with the index, want %d (navigation: %d)", c.expr, ri.Stats.AxisSteps, want, rn.Stats.AxisSteps)
		}
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
	d, err := ParseDocumentString(`<r><a><a><b/><c/></a><b/></a><b/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	runBoth(t, d, nil, "//a/b") // intermediate a-set nests: no-match fallback
	runBoth(t, d, nil, "/r/a")  // one-node walk: cost fallback
	runBoth(t, d, nil, "//a//b")
	runBoth(t, d, nil, "//c")

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
		for _, c := range []struct {
			opt   Options
			batch int
		}{
			{Options{EnablePathIndex: true}, 0},
			{Options{EnablePathIndex: true, Mode: Canonical}, 0},
			{Options{EnablePathIndex: true}, 3},
		} {
			qi := setBatchSize(MustCompileWith(expr, c.opt), c.batch)
			base := c.opt
			base.EnablePathIndex = false
			qn := setBatchSize(MustCompileWith(expr, base), c.batch)
			ri, err := qi.Run(RootNode(d), nil)
			if err != nil {
				t.Fatalf("%s (%+v): %v", expr, c, err)
			}
			rn, err := qn.Run(RootNode(d), nil)
			if err != nil {
				t.Fatalf("%s baseline: %v", expr, err)
			}
			if ri.Value.String() != rn.Value.String() {
				t.Errorf("%s (%+v): %q != %q", expr, c, ri.Value.String(), rn.Value.String())
			}
			if ri.Value.IsNodeSet() {
				for i := range ri.Value.Nodes {
					if ri.Value.Nodes[i] != rn.Value.Nodes[i] {
						t.Errorf("%s (%+v): node %d differs", expr, c, i)
					}
				}
			}
		}
	}
}

// TestPathIndexRefusesWindowedSteps: a path-index scan answers a chain's
// node set and knows no per-context positions, so a windowed step is never
// part of a candidate chain. On indexed documents, a MemDoc and its store
// image, the answers equal the interpreter's.
func TestPathIndexRefusesWindowedSteps(t *testing.T) {
	var dblp, ab strings.Builder
	dblp.WriteString("<dblp>")
	ab.WriteString("<a>")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&dblp, `<article><title>t%d</title></article><inproceedings><title/></inproceedings>`, i)
		fmt.Fprintf(&ab, `<b n="%d"/><c/>`, i)
	}
	dblp.WriteString("</dblp>")
	ab.WriteString("</a>")
	for _, c := range []struct{ xml, expr, step string }{
		{dblp.String(), "/dblp/article[1]/title", "article"},
		{dblp.String(), "/dblp/article[last()]/title", "article"},
		{ab.String(), "/a/b[last()]", "child::b"},
		{ab.String(), "/a/b[position() < 3]/@n", "child::b"},
	} {
		mem, err := ParseDocumentString(c.xml)
		if err != nil {
			t.Fatal(err)
		}
		var img bytes.Buffer
		if err := store.WriteTo(&img, mem); err != nil {
			t.Fatal(err)
		}
		sd, err := store.OpenReaderAt(bytes.NewReader(img.Bytes()), store.Options{BufferPages: 8})
		if err != nil {
			t.Fatal(err)
		}
		q := MustCompileWith(c.expr, Options{EnablePathIndex: true})
		for _, line := range strings.Split(q.ExplainPhysical(), "\n") {
			if strings.Contains(line, "path-index candidate") && strings.Contains(line, c.step) {
				t.Errorf("%s: a candidate takes in the windowed step: %s", c.expr, line)
			}
		}
		ref, err := interp.Compile(c.expr, nil, interp.Options{DedupSteps: true})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Eval(RootNode(mem), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []Document{mem, sd} {
			a, err := q.ExplainAnalyze(t.Context(), RootNode(d), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(a.Tree, "\n") {
				if strings.Contains(line, "PathIndexScan[") && strings.Contains(line, c.step) {
					t.Errorf("%s on %T: a scan takes in the windowed step:\n%s", c.expr, d, a.Tree)
				}
			}
			res, err := q.Run(RootNode(d), nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, w := renderIDs(res.Value), renderIDs(want); got != w || len(want.Nodes) == 0 {
				t.Errorf("%s on %T: got %s, want %s", c.expr, d, got, w)
			}
		}
		sd.Close()
	}
}
