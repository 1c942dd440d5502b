package codegen

import (
	"fmt"
	"strings"
	"testing"

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
// batched pipeline, and the plan advertises the default batch size.
func TestBatchMarking(t *testing.T) {
	plan := compileQuery(t, "/a/b/c", translate.Improved())
	if plan.BatchSize == 0 {
		t.Fatalf("BatchSize = 0, want default on")
	}
	if len(plan.batchCol) == 0 {
		t.Fatalf("no operators marked batch-capable for /a/b/c")
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

// TestBatchSizeEquivalence runs the same plans at adversarial batch sizes
// (1 forces a refill per node, 3 misaligns with every operator fan-out) and
// scalar, and requires identical results and identical Stats totals.
func TestBatchSizeEquivalence(t *testing.T) {
	d, err := dom.ParseString(batchSample)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"/a/b", "/a/b/c", "//c", "//b[@k]", "/a/*", "descendant::c",
		"/a/b/ancestor::a", "//b/following-sibling::*", "//@k",
	}
	sizes := []int{1, 3, 256, 1024}
	for _, q := range queries {
		for _, opt := range []translate.Options{translate.Improved(), translate.Canonical()} {
			plan := compileQuery(t, q, opt)
			scalar := compileQuery(t, q, opt)
			scalar.BatchSize = 0
			ref, err := scalar.Run(dom.Node{Doc: d, ID: d.Root()}, nil)
			if err != nil {
				t.Fatalf("%s scalar: %v", q, err)
			}
			for _, bs := range sizes {
				plan.BatchSize = bs
				got, err := plan.Run(dom.Node{Doc: d, ID: d.Root()}, nil)
				if err != nil {
					t.Fatalf("%s batch=%d: %v", q, bs, err)
				}
				if !sameNodes(got.Value, ref.Value) {
					t.Errorf("%s batch=%d: nodes %v, scalar %v", q, bs, names(got.Value), names(ref.Value))
				}
				if got.Stats != ref.Stats {
					t.Errorf("%s batch=%d: stats %+v, scalar %+v", q, bs, got.Stats, ref.Stats)
				}
			}
		}
	}
}

// TestTmpCSMatchesInterp runs positional predicates whose Tmp^cs buffers
// many multi-tuple contexts, each entered through a lookahead row, on both
// protocols and both translations, against the interpreter.
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
			for _, bs := range []int{0, plan.BatchSize} {
				plan.BatchSize = bs
				got := runQuery(t, plan, d)
				if !sameNodes(got, want) {
					t.Errorf("%s batch=%d: nodes %v, interpreter %v", q, bs, names(got), names(want))
				}
			}
		}
	}
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
