package translate

import (
	"strings"
	"testing"

	"natix/internal/algebra"
	"natix/internal/dom"
	"natix/internal/sem"
	"natix/internal/xpath"
)

func trans(t *testing.T, expr string, opt Options) *Result {
	t.Helper()
	ast, err := xpath.Parse(expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	root, err := sem.Analyze(ast, nil)
	if err != nil {
		t.Fatalf("analyze %q: %v", expr, err)
	}
	res, err := Translate(root, opt)
	if err != nil {
		t.Fatalf("translate %q: %v", expr, err)
	}
	return res
}

// countOps counts operators of each dynamic type in a plan, including
// subscript-nested plans.
func countOps(op algebra.Op) map[string]int {
	counts := map[string]int{}
	algebra.Walk(op, func(o algebra.Op) {
		switch o.(type) {
		case *algebra.DJoin:
			counts["djoin"]++
		case *algebra.UnnestMap:
			counts["unnest"]++
		case *algebra.DupElim:
			counts["dupelim"]++
		case *algebra.MemoX:
			counts["memox"]++
		case *algebra.Select:
			counts["select"]++
		case *algebra.PosMap:
			counts["posmap"]++
		case *algebra.TmpCS:
			counts["tmpcs"]++
		case *algebra.Sort:
			counts["sort"]++
		case *algebra.Concat:
			counts["concat"]++
		case *algebra.MemoMap:
			counts["memomap"]++
		case *algebra.ExistsJoin:
			counts["existsjoin"]++
		case *algebra.Tokenize:
			counts["tokenize"]++
		case *algebra.Deref:
			counts["deref"]++
		}
	})
	return counts
}

func TestCanonicalUsesDJoins(t *testing.T) {
	res := trans(t, "/a/b/c", Canonical())
	c := countOps(res.Plan)
	if c["djoin"] != 3 {
		t.Errorf("canonical d-joins = %d, want 3 (one per step)", c["djoin"])
	}
	if c["dupelim"] != 0 {
		// a/b/c over child axes from a singleton root is provably
		// duplicate-free, so even the final dup-elim is dropped.
		t.Errorf("dupelim = %d, want 0 for a duplicate-free child chain", c["dupelim"])
	}
}

func TestCanonicalFinalDupElimOnly(t *testing.T) {
	res := trans(t, "/descendant::a/ancestor::b/descendant::c", Canonical())
	c := countOps(res.Plan)
	if c["dupelim"] != 1 {
		t.Errorf("canonical dupelims = %d, want 1 (single final)", c["dupelim"])
	}
	// The final operator is the duplicate elimination.
	if _, ok := res.Plan.(*algebra.DupElim); !ok {
		t.Errorf("plan root = %T, want DupElim", res.Plan)
	}
}

func TestImprovedStacksOuterPaths(t *testing.T) {
	res := trans(t, "/a/descendant::b/following::c", Improved())
	c := countOps(res.Plan)
	if c["djoin"] != 0 {
		t.Errorf("stacked translation has %d d-joins, want 0:\n%s",
			c["djoin"], algebra.Explain(res.Plan))
	}
	if c["unnest"] != 3 {
		t.Errorf("unnest maps = %d, want 3", c["unnest"])
	}
	// The descendant step runs from one context and is duplicate-free;
	// only the following step needs a pushed dup-elim, and the final one
	// is subsumed.
	if c["dupelim"] != 1 {
		t.Errorf("dupelims = %d, want 1 (pushed after the following step)", c["dupelim"])
	}
}

func TestInnerPathsUseDJoinsAndMemoX(t *testing.T) {
	// The paper's section 4.2.2 example shape: the inner path re-reaches
	// the same c elements, so the step after the ppd descendant step is
	// memoized.
	res := trans(t, "/a/b[count(descendant::c/following::*) = 1000]", Improved())
	c := countOps(res.Plan)
	if c["memox"] != 1 {
		t.Errorf("memox = %d, want 1:\n%s", c["memox"], algebra.Explain(res.Plan))
	}
	if c["djoin"] < 1 {
		t.Errorf("inner path should use d-joins, got %d", c["djoin"])
	}
	// Without the MemoX option, no memoization.
	opt := Improved()
	opt.MemoX = false
	res2 := trans(t, "/a/b[count(descendant::c/following::*) = 1000]", opt)
	if countOps(res2.Plan)["memox"] != 0 {
		t.Error("MemoX disabled but present")
	}
	// MemoX only applies after ppd steps: child-axis feeds stay plain.
	res3 := trans(t, "/a/b[count(c/d) = 1]", Improved())
	if countOps(res3.Plan)["memox"] != 0 {
		t.Errorf("memox after non-ppd step:\n%s", algebra.Explain(res3.Plan))
	}
}

func TestPositionalPredicateOperators(t *testing.T) {
	// Positional predicates that are not a window of their step: χ_cp for
	// position(), Tmp^cs for last().
	res := trans(t, "/a/b[position() mod 2 = 0]", Improved())
	c := countOps(res.Plan)
	if c["posmap"] != 1 || c["tmpcs"] != 0 {
		t.Errorf("posmap=%d tmpcs=%d, want 1/0", c["posmap"], c["tmpcs"])
	}
	res2 := trans(t, "/a/b[@k][last()]", Improved())
	c2 := countOps(res2.Plan)
	if c2["posmap"] != 1 || c2["tmpcs"] != 1 {
		t.Errorf("last(): posmap=%d tmpcs=%d, want 1/1", c2["posmap"], c2["tmpcs"])
	}
	// Plain value predicates need neither.
	res3 := trans(t, "/a/b[@k = '1']", Improved())
	c3 := countOps(res3.Plan)
	if c3["posmap"] != 0 || c3["tmpcs"] != 0 {
		t.Errorf("value pred: posmap=%d tmpcs=%d, want 0/0", c3["posmap"], c3["tmpcs"])
	}
	// Stacked positional predicates carry an epoch attribute.
	found := false
	algebra.Walk(res2.Plan, func(o algebra.Op) {
		if um, ok := o.(*algebra.UnnestMap); ok && um.EpochAttr != "" {
			found = true
		}
	})
	if !found {
		t.Error("stacked positional predicate lacks epoch attribute")
	}
}

func TestFilterExprSortsForPositionalPreds(t *testing.T) {
	res := trans(t, "(//a)[2]", Improved())
	if countOps(res.Plan)["sort"] != 1 {
		t.Errorf("filter with positional predicate needs a sort:\n%s", algebra.Explain(res.Plan))
	}
	// Non-positional filter predicates do not sort (section 3.4.1).
	res2 := trans(t, "(//a)[@k]", Improved())
	if countOps(res2.Plan)["sort"] != 0 {
		t.Errorf("non-positional filter must not sort:\n%s", algebra.Explain(res2.Plan))
	}
}

func TestUnionShape(t *testing.T) {
	res := trans(t, "a | b | c", Improved())
	c := countOps(res.Plan)
	if c["concat"] != 1 {
		t.Errorf("concat = %d", c["concat"])
	}
	if _, ok := res.Plan.(*algebra.DupElim); !ok {
		t.Errorf("union root = %T, want DupElim", res.Plan)
	}
}

func TestNodeSetComparisonJoins(t *testing.T) {
	res := trans(t, "a[b = c]", Improved())
	if countOps(res.Plan)["existsjoin"] != 1 {
		t.Errorf("= over node-sets should use the semi-join:\n%s", algebra.Explain(res.Plan))
	}
	res2 := trans(t, "a[b != c]", Improved())
	found := false
	algebra.Walk(res2.Plan, func(o algebra.Op) {
		if j, ok := o.(*algebra.ExistsJoin); ok && !j.Eq {
			found = true
		}
	})
	if !found {
		t.Error("!= should use the inequality join")
	}
}

func TestIDTranslation(t *testing.T) {
	res := trans(t, "id('a b')", Improved())
	c := countOps(res.Plan)
	if c["tokenize"] != 1 || c["deref"] != 1 || c["dupelim"] != 1 {
		t.Errorf("id(): tokenize=%d deref=%d dupelim=%d", c["tokenize"], c["deref"], c["dupelim"])
	}
	res2 := trans(t, "id(//ref)", Improved())
	c2 := countOps(res2.Plan)
	if c2["tokenize"] != 1 || c2["deref"] != 1 {
		t.Errorf("id(ns): tokenize=%d deref=%d", c2["tokenize"], c2["deref"])
	}
}

func TestPredicateReordering(t *testing.T) {
	// An expensive clause must be evaluated after the cheap one and
	// through a materializing map.
	expr := "/a/b[count(descendant::c/following::d) = 2 and @k = '1']"
	res := trans(t, expr, Improved())
	if countOps(res.Plan)["memomap"] != 1 {
		t.Errorf("expensive clause not materialized:\n%s", algebra.Explain(res.Plan))
	}
	opt := Improved()
	opt.PredReorder = false
	res2 := trans(t, expr, opt)
	if countOps(res2.Plan)["memomap"] != 0 {
		t.Error("PredReorder disabled but χ^mat present")
	}
	// With reordering, the cheap select sits below the expensive one.
	var order []string
	algebra.Walk(res.Plan, func(o algebra.Op) {
		switch n := o.(type) {
		case *algebra.Select:
			order = append(order, "select:"+n.Pred.String())
		case *algebra.MemoMap:
			order = append(order, "memomap")
		}
	})
	// Walk is pre-order from the root: the expensive memomap+select must
	// appear before (above) the cheap select.
	cheapIdx, memoIdx := -1, -1
	for i, s := range order {
		if strings.Contains(s, "'1'") && strings.HasPrefix(s, "select") && !strings.Contains(s, "memo") {
			cheapIdx = i
		}
		if s == "memomap" {
			memoIdx = i
		}
	}
	if cheapIdx < 0 || memoIdx < 0 || memoIdx > cheapIdx {
		t.Errorf("clause order wrong (pre-order): %v", order)
	}
}

func TestScalarTopLevel(t *testing.T) {
	res := trans(t, "count(//a) + 1", Improved())
	if res.IsSequence() {
		t.Fatal("scalar query produced a sequence plan")
	}
	if res.Scalar == nil || !strings.Contains(res.Scalar.String(), "count") {
		t.Errorf("scalar = %v", res.Scalar)
	}
}

func TestNamespaceAxisTreatedAsPPD(t *testing.T) {
	// The engine's namespace axis yields shared declaration records, so a
	// duplicate elimination must follow it.
	res := trans(t, "//a/namespace::*", Improved())
	if _, ok := res.Plan.(*algebra.DupElim); !ok {
		t.Errorf("namespace axis result not deduplicated: %T", res.Plan)
	}
}

func TestAttrNamesUnique(t *testing.T) {
	res := trans(t, "/a[b/c]/d[e][f/g]/h", Improved())
	seen := map[string]bool{}
	algebra.Walk(res.Plan, func(o algebra.Op) {
		for _, a := range o.Produced() {
			if seen[a] {
				t.Errorf("attribute %q produced twice", a)
			}
			seen[a] = true
		}
	})
}

func TestSeqPropsDropsDupElims(t *testing.T) {
	for _, c := range []struct {
		expr string
		// improved counts pushed dup-elims; canonical has at most the
		// final one.
		improved, canonical int
	}{
		// A descendant step from a single context is provably
		// duplicate-free, although it is ppd.
		{"/a/descendant::b", 0, 0},
		// Nested a's can reach the same b twice.
		{"//a/descendant::b", 1, 1},
		// Child chains keep contexts disjoint, so the descendant step
		// after them is duplicate-free too.
		{"/a/b/c/descendant::d", 0, 0},
		// following-sibling from multiple contexts duplicates...
		{"/a/b/following-sibling::c", 1, 1},
		// ...but from the single context node it does not.
		{"following-sibling::c", 0, 0},
	} {
		for _, m := range []struct {
			name string
			opt  Options
			want int
		}{{"improved", Improved(), c.improved}, {"canonical", Canonical(), c.canonical}} {
			if n := countOps(trans(t, c.expr, m.opt).Plan)["dupelim"]; n != m.want {
				t.Errorf("%s %s: %d dupelims, want %d", m.name, c.expr, n, m.want)
			}
		}
	}
}

func TestSeqPropsDropsSorts(t *testing.T) {
	for _, c := range []struct {
		expr string
		want int
	}{
		// The child chain is provably in document order: no sort.
		{"(/a/b/c)[2]", 0},
		// A union has no order guarantee.
		{"(/a/b | /a/c)[2]", 1},
		// Reverse-axis results are not in document order.
		{"(/a/b/ancestor::*)[2]", 1},
	} {
		for _, m := range []struct {
			name string
			opt  Options
		}{{"improved", Improved()}, {"canonical", Canonical()}} {
			if n := countOps(trans(t, c.expr, m.opt).Plan)["sort"]; n != c.want {
				t.Errorf("%s %s: %d sorts, want %d", m.name, c.expr, n, c.want)
			}
		}
	}
}

func TestSeqPropsTransitions(t *testing.T) {
	seed := seedProps()
	// descendant from a single node: ordered + dup-free, nested.
	d := seed.step(dom.AxisDescendant)
	if !d.ordered || !d.dupFree || d.nonNested || d.maxOne {
		t.Errorf("descendant from seed: %+v", d)
	}
	// child after descendant: still dup-free (one parent per node), but
	// not ordered (contexts are nested).
	c := d.step(dom.AxisChild)
	if !c.dupFree || c.ordered {
		t.Errorf("child after descendant: %+v", c)
	}
	// parent after child-from-many: everything lost.
	p := c.step(dom.AxisParent)
	if p.dupFree || p.ordered {
		t.Errorf("parent from many: %+v", p)
	}
	// ancestor from one node: dup-free, in reverse document order.
	a := seed.step(dom.AxisAncestor)
	if !a.dupFree || a.ordered {
		t.Errorf("ancestor from seed: %+v", a)
	}
	// attribute results are always non-nested.
	at := c.step(dom.AxisAttribute)
	if !at.nonNested || !at.dupFree {
		t.Errorf("attribute: %+v", at)
	}
	// self preserves everything.
	if s := seed.step(dom.AxisSelf); s != seed {
		t.Errorf("self: %+v", s)
	}
}

// windows lists the positional windows of a plan's unnest-maps, in plan
// pre-order ("-" for a step without one).
func windows(op algebra.Op) []string {
	var out []string
	algebra.Walk(op, func(o algebra.Op) {
		if um, ok := o.(*algebra.UnnestMap); ok {
			w := "-"
			if um.Window.Active() {
				w = um.Window.String()
			}
			out = append(out, w)
		}
	})
	return out
}

func TestPositionalWindows(t *testing.T) {
	noReorder := Improved()
	noReorder.PredReorder = false
	for _, tc := range []struct {
		expr string
		opt  Options
		// want is the window of the final step, "-" for none; the
		// operator counts and the epoch attribute are the whole plan's.
		want          string
		posmap, tmpcs int
		epoch         bool
	}{
		{"/a/b[2]", Improved(), "#2", 0, 0, false},
		{"/a/b[position() = 2]", Improved(), "#2", 0, 0, false},
		{"/a/b[position() < 3]", Improved(), "#1..2", 0, 0, false},
		{"/a/b[position() <= 3]", Improved(), "#1..3", 0, 0, false},
		{"/a/b[last()]", Improved(), "#1 from end", 0, 0, false},
		{"/a/b[position() = last()]", Improved(), "#1 from end", 0, 0, false},
		{"/a/b[last() - 2]", Improved(), "#3 from end", 0, 0, false},
		{"/a/following-sibling::b[last() - 1]", Improved(), "#2 from end", 0, 0, false},
		{"/a/preceding-sibling::*[last()]", Improved(), "#1 from end", 0, 0, false},
		{"/a/ancestor::*[1]", Improved(), "#1", 0, 0, false},
		{"/a/descendant::b[position() < 4]", Improved(), "#1..3", 0, 0, false},
		// The inner d-join form takes windows too.
		{"/a[b[2]]", Improved(), "#2", 0, 0, false},
		// Later predicates keep their χ_cp and Tmp^cs, counted within
		// the window's output.
		{"/a/b[1][last()]", Improved(), "#1", 1, 1, true},
		{"/a/b[@k][1]", Improved(), "-", 1, 0, true},
		// Forms that are not windows.
		{"/a/descendant::b[last()]", Improved(), "-", 1, 1, true},
		{"/a/ancestor::b[last() - 1]", Improved(), "-", 1, 1, true},
		{"/a/b[0]", Improved(), "-", 1, 0, true},
		{"/a/b[2.5]", Improved(), "-", 1, 0, true},
		{"/a/b[-1]", Improved(), "-", 1, 0, true},
		{"/a/b[position() < 1]", Improved(), "-", 1, 0, true},
		{"/a/b[position() <= 0]", Improved(), "-", 1, 0, true},
		{"/a/b[position() > 1]", Improved(), "-", 1, 0, true},
		{"/a/b[position() = $k]", Improved(), "-", 1, 0, true},
		{"/a/b[last() - 0]", Improved(), "-", 1, 1, true},
		{"/a/b[position() = 2 and @k]", Improved(), "-", 1, 0, true},
		// The paper's plans stay where they are compared against.
		{"/a/b[2]", Canonical(), "-", 1, 0, false},
		{"/a/b[last()]", Canonical(), "-", 1, 1, false},
		{"/a/b[last()]", noReorder, "-", 1, 1, true},
	} {
		res := trans(t, tc.expr, tc.opt)
		ws := windows(res.Plan)
		c := countOps(res.Plan)
		epoch := false
		algebra.Walk(res.Plan, func(o algebra.Op) {
			if um, ok := o.(*algebra.UnnestMap); ok && um.EpochAttr != "" {
				epoch = true
			}
		})
		last := ws[0] // the final step, or the one nested in a predicate
		if last != tc.want || c["posmap"] != tc.posmap || c["tmpcs"] != tc.tmpcs || epoch != tc.epoch {
			t.Errorf("%s: window %s posmap %d tmpcs %d epoch %v, want %s %d %d %v\n%s",
				tc.expr, last, c["posmap"], c["tmpcs"], epoch,
				tc.want, tc.posmap, tc.tmpcs, tc.epoch, algebra.Explain(res.Plan))
		}
	}
}
