package codegen

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"natix/internal/algebra"
	"natix/internal/dom"
	"natix/internal/interp"
	"natix/internal/translate"
	"natix/internal/xval"
)

const batchSample = `<a>
  <b k="1">x<c/><c/></b>
  <b k="2">y<c/></b>
  <b>z</b>
  <c>top</c>
</a>`

// TestBatchMarking checks the batchability analysis actually marks the hot
// Fig. 5 chain: an improved-translation location path compiles to a fully
// batched pipeline, every Υ of it included, and a scalar query marks
// nothing.
func TestBatchMarking(t *testing.T) {
	plan := compileQuery(t, "/a/b/c", translate.Improved())
	if len(plan.batchCol) == 0 {
		t.Fatalf("no operators marked batch-capable for /a/b/c")
	}
	steps := 0
	for op := range plan.batchCol {
		if _, ok := op.(*algebra.UnnestMap); ok {
			steps++
		}
	}
	if steps != 3 {
		t.Errorf("/a/b/c: %d of 3 location steps marked batch-capable", steps)
	}
	if plan := compileQuery(t, "count(/a/b)", translate.Improved()); len(plan.batchCol) != 0 {
		t.Errorf("count(/a/b): %d operators marked batch-capable, want none", len(plan.batchCol))
	}
}

// TestBatchMarkingSelect checks a cheap positional-free predicate keeps the
// chain batched (the predicate program reads only the column register).
func TestBatchMarkingSelect(t *testing.T) {
	plan := compileQuery(t, "//b[@k]", translate.Improved())
	if len(plan.batchCol) == 0 {
		t.Fatalf("no operators marked batch-capable for //b[@k]")
	}
}

// TestBatchSizeEquivalence runs the same plans at batch sizes 1 (a refill
// per node), 3 (misaligned with every operator fan-out), the default and
// 1024, and requires the interpreter's answer (as a set: the plan's order
// may legitimately differ) and the size-1 run's nodes, in order, and Stats
// totals at every size.
func TestBatchSizeEquivalence(t *testing.T) {
	d, err := dom.ParseString(batchSample)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"/a/b", "/a/b/c", "//c", "//b[@k]", "/a/*", "descendant::c",
		"/a/b/ancestor::a", "//b/following-sibling::*", "//@k",
	}
	root := dom.Node{Doc: d, ID: d.Root()}
	for _, q := range queries {
		ref, err := interp.Compile(q, nil, interp.Options{DedupSteps: true})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Eval(root, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []translate.Options{translate.Improved(), translate.Canonical()} {
			plan := compileQuery(t, q, opt)
			var one *Result
			for _, bs := range []int{1, 3, 0, 1024} {
				plan.BatchSize = bs
				got, err := plan.Run(root, nil)
				if err != nil {
					t.Fatalf("%s batch=%d: %v", q, bs, err)
				}
				if one == nil {
					one = got
				}
				if !sameNodes(docOrder(got.Value), want) {
					t.Errorf("%s batch=%d: nodes %v, interpreter %v", q, bs, names(got.Value), names(want))
				}
				if !sameNodes(got.Value, one.Value) {
					t.Errorf("%s batch=%d: nodes %v, batch=1 %v", q, bs, names(got.Value), names(one.Value))
				}
				if got.Stats != one.Stats {
					t.Errorf("%s batch=%d: stats %+v, batch=1 %+v", q, bs, got.Stats, one.Stats)
				}
			}
		}
	}
}

// TestTmpCSMatchesInterp runs positional predicates whose Tmp^cs buffers
// many multi-tuple contexts, each entered through a lookahead row, at batch
// sizes 1 and the default under both translations, against the interpreter.
func TestTmpCSMatchesInterp(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<a>")
	for i := 1; i <= 12; i++ {
		fmt.Fprintf(&sb, `<b k="%d">`, i)
		for j := 1; j <= i%5+1; j++ {
			fmt.Fprintf(&sb, `<c k="%d-%d"/>`, i, j)
		}
		sb.WriteString("</b>")
	}
	sb.WriteString("</a>")
	d, err := dom.ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	root := dom.Node{Doc: d, ID: d.Root()}
	for _, q := range []string{
		"//b/c[position() = last()]", "//b/c[last() - 1]/@k", "/a/b[position() = last() - 2]",
		"//c[position() = last()]", "//b[c][position() = last()]/c[1]", "//b/c[position() < last()]",
	} {
		ref, err := interp.Compile(q, nil, interp.Options{DedupSteps: true})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Eval(root, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []translate.Options{translate.Improved(), translate.Canonical()} {
			plan := compileQuery(t, q, opt)
			for _, bs := range []int{1, 0} {
				plan.BatchSize = bs
				got := runQuery(t, plan, d)
				if !sameNodes(got, want) {
					t.Errorf("%s batch=%d: nodes %v, interpreter %v", q, bs, names(got), names(want))
				}
			}
		}
	}
}

// docOrder returns the nodes of v sorted in document order.
func docOrder(v xval.Value) xval.Value {
	nodes := append([]dom.Node(nil), v.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return dom.CompareOrder(nodes[i], nodes[j]) < 0 })
	return xval.NodeSet(nodes)
}

func sameNodes(a, b xval.Value) bool {
	if !a.IsNodeSet() || !b.IsNodeSet() || len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	return true
}

func names(v xval.Value) []string {
	var out []string
	for _, n := range v.Nodes {
		out = append(out, fmt.Sprintf("%d", n.ID))
	}
	return out
}
