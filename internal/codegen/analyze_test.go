package codegen

import (
	"context"
	"strings"
	"testing"

	"natix/internal/algebra"
	"natix/internal/dom"
	"natix/internal/guard"
	"natix/internal/translate"
)

// fig5sample is a small document with enough structure that the Fig. 5
// style query below produces non-trivial operator traffic.
const fig5sample = `<site><people>` +
	`<person id="p1"><name>Ann</name><age>31</age></person>` +
	`<person id="p2"><name>Bob</name><age>17</age></person>` +
	`<person id="p3"><name>Cat</name><age>42</age></person>` +
	`</people></site>`

// TestAnalyzeTupleConsistency: the sum of tuples produced by scan-family
// operators in the instrumented profile must equal the engine's own
// Stats.Tuples account — two independent counters of the same events.
func TestAnalyzeTupleConsistency(t *testing.T) {
	d, _ := dom.ParseString(fig5sample)
	for _, expr := range []string{
		"/site/people/person[age > 18]/name",
		"count(//person)",
		"//person[@id='p2']/name",
		"/site/people/person/age | /site/people/person/name",
	} {
		plan := compileQuery(t, expr, translate.Improved())
		prof := plan.NewProfile()
		res, err := plan.run(context.Background(), guard.Limits{}, dom.Node{Doc: d, ID: d.Root()}, nil, prof)
		if err != nil {
			t.Fatalf("%s: run: %v", expr, err)
		}
		if got, want := plan.ScanTuples(prof), res.Stats.Tuples; got != want {
			t.Errorf("%s: profiled scan tuples %d != Stats.Tuples %d", expr, got, want)
		}
	}
}

func TestExplainAnalyzeRendering(t *testing.T) {
	d, _ := dom.ParseString(fig5sample)
	plan := compileQuery(t, "/site/people/person[age > 18]/name", translate.Improved())
	res, tree, err := plan.ExplainAnalyze(context.Background(), guard.Limits{}, dom.Node{Doc: d, ID: d.Root()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Value.Nodes) != 2 {
		t.Fatalf("result %v", res.Value)
	}
	for _, want := range []string{"totals:", "out=", "opens=", "time=", "self="} {
		if !strings.Contains(tree, want) {
			t.Errorf("annotated tree missing %q:\n%s", want, tree)
		}
	}
}

// TestExplainAnalyzeScalar: scalar-only plans (no iterator tree) render the
// program account instead of an operator tree.
func TestExplainAnalyzeScalar(t *testing.T) {
	d, _ := dom.ParseString(fig5sample)
	plan := compileQuery(t, "count(//person) * 2", translate.Improved())
	res, tree, err := plan.ExplainAnalyze(context.Background(), guard.Limits{}, dom.Node{Doc: d, ID: d.Root()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.N != 6 {
		t.Fatalf("result %v", res.Value)
	}
	if !strings.Contains(tree, "prog[") || !strings.Contains(tree, "runs=") {
		t.Errorf("scalar analyze missing program account:\n%s", tree)
	}
}

// TestExplainProgramSource: program source text is rendered only when a plan
// is explained, so this pins what it renders. Every "; <source>" header of
// ExplainPhysical and every prog[<source>] line of ExplainAnalyze must equal,
// in explain order, the String() of the scalar each program was compiled
// from, nested aggregate plans and memoized maps included.
func TestExplainProgramSource(t *testing.T) {
	d, _ := dom.ParseString(`<r><a><b><c/></b><b><c/></b></a><a><b/></a></r>`)
	root := dom.Node{Doc: d, ID: d.Root()}
	// compiledFrom is the scalar codegen compiles for an operator: a χ^mat
	// map's expression wrapped in its memo.
	compiledFrom := func(op algebra.Op) algebra.Scalar {
		if m, ok := op.(*algebra.MemoMap); ok {
			return &algebra.Memo{X: m.Expr, KeyAttr: m.KeyAttr}
		}
		return algebra.Scalars(op)[0]
	}
	headers := func(out string) []string {
		var hs []string
		for _, l := range strings.Split(out, "\n") {
			l = strings.TrimPrefix(strings.TrimLeft(l, " "), "| ")
			if src, ok := strings.CutPrefix(l, "; "); ok {
				hs = append(hs, src)
			}
		}
		return hs
	}
	progLines := func(out string) []string {
		var ps []string
		for _, l := range strings.Split(out, "\n") {
			l = strings.TrimPrefix(strings.TrimLeft(l, " "), "| ")
			if src, ok := strings.CutPrefix(l, "prog["); ok {
				ps = append(ps, src[:strings.LastIndex(src, "]  (runs=")])
			}
		}
		return ps
	}
	check := func(expr, what string, got, want []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: %s has %d source lines, want %d:\n%q", expr, what, len(got), len(want), got)
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: %s line %d:\n got  %s\n want %s", expr, what, i, got[i], want[i])
			}
		}
	}

	for _, expr := range []string{
		"/descendant::a[count(b[c]) > 1]",
		"//a[position() < 3 and count(.//b[c]) > 1]",
	} {
		plan := compileQuery(t, expr, translate.Improved())
		// The walk of explainOp/analyzeOp: an operator's programs, then the
		// plans nested in its scalars, then its children.
		var want []string
		var walk func(op algebra.Op)
		walk = func(op algebra.Op) {
			for _, prog := range plan.progs[op] {
				sc := compiledFrom(op)
				want = append(want, sc.String())
				if _, memo := op.(*algebra.MemoMap); !memo && prog.Source != sc {
					t.Errorf("%s: program of %s holds %v, not the operator's scalar", expr, op, prog.Source)
				}
			}
			for _, sc := range algebra.Scalars(op) {
				algebra.WalkScalar(sc, func(s algebra.Scalar) {
					if agg, ok := s.(*algebra.NestedAgg); ok {
						walk(agg.Plan)
					}
				})
			}
			for _, c := range op.Children() {
				walk(c)
			}
		}
		walk(plan.source.Plan)
		phys := plan.ExplainPhysical()
		if !strings.Contains(phys, "nested plan") || len(want) < 3 {
			t.Fatalf("%s: want a plan with nested aggregates, got %d programs:\n%s", expr, len(want), phys)
		}
		check(expr, "ExplainPhysical", headers(phys), want)
		_, tree, err := plan.ExplainAnalyze(context.Background(), guard.Limits{}, root, nil)
		if err != nil {
			t.Fatal(err)
		}
		check(expr, "ExplainAnalyze", progLines(tree), want)
	}

	// A scalar plan: its one top-level program disassembles in
	// ExplainPhysical; ExplainAnalyze also accounts the nested plans' programs.
	expr := "count(/descendant::a[b[c]]) + 1"
	plan := compileQuery(t, expr, translate.Improved())
	top := plan.source.Scalar.String()
	check(expr, "ExplainPhysical", headers(plan.ExplainPhysical()), []string{top})
	_, tree, err := plan.ExplainAnalyze(context.Background(), guard.Limits{}, root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ps := progLines(tree); len(ps) < 2 || ps[0] != top {
		t.Errorf("%s: ExplainAnalyze programs %q, want %q first", expr, ps, top)
	}
}

// TestProfileIsolation: a profiled run must not leak instrumentation into
// subsequent plain runs of the same plan.
func TestProfileIsolation(t *testing.T) {
	d, _ := dom.ParseString(fig5sample)
	plan := compileQuery(t, "//person/name", translate.Improved())
	if _, _, err := plan.ExplainAnalyze(context.Background(), guard.Limits{}, dom.Node{Doc: d, ID: d.Root()}, nil); err != nil {
		t.Fatal(err)
	}
	res, err := plan.Run(dom.Node{Doc: d, ID: d.Root()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Value.Nodes) != 3 {
		t.Fatalf("plain run after analyze: %v", res.Value)
	}
}
