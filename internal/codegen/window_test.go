package codegen

import (
	"strings"
	"testing"

	"natix/internal/algebra"
	"natix/internal/dom"
	"natix/internal/interp"
	"natix/internal/translate"
	"natix/internal/xval"
)

// windowSample nests g contexts under shared ancestors and gives b contexts
// shared preceding siblings, so that walks from later contexts reach nodes
// earlier ones already reached.
const windowSample = `<r><a><e/><g/><b><g/><e/></b></a><e/><e/>` +
	`<x><c/><b/><c/><b/><b/><g/></x><b><e/><g/></b><g/></r>`

// interpNodes evaluates expr with the interpreter from the root of d.
func interpNodes(t *testing.T, expr string, d dom.Document) xval.Value {
	t.Helper()
	ref, err := interp.Compile(expr, nil, interp.Options{DedupSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Eval(dom.Node{Doc: d, ID: d.Root()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// windowedSteps returns the unnest-maps of the plan that carry a window.
func windowedSteps(p *Plan) []*algebra.UnnestMap {
	var out []*algebra.UnnestMap
	algebra.Walk(p.source.Plan, func(o algebra.Op) {
		if um, ok := o.(*algebra.UnnestMap); ok && um.Window.Active() {
			out = append(out, um)
		}
	})
	return out
}

// TestWindowedStepNotFused: a Π^D over a windowed Υ stays a Π^D. Fused into
// a visited-set step, a later context's walk would skip or stop at the
// nodes an earlier one reached and count its positions wrongly.
func TestWindowedStepNotFused(t *testing.T) {
	d, err := dom.ParseString(windowSample)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"//g/ancestor::*[1]", "//b/preceding-sibling::*[1]",
		"//g/ancestor::*[2]", "//b/preceding-sibling::*[2]",
		"//g/preceding::e[1]", "//g/following::e[position() < 3]",
	} {
		plan := compileQuery(t, q, translate.Improved())
		ws := windowedSteps(plan)
		if len(ws) != 1 {
			t.Fatalf("%s: %d windowed steps, want 1:\n%s", q, len(ws), plan.Explain())
		}
		under := false
		algebra.Walk(plan.source.Plan, func(o algebra.Op) {
			if de, ok := o.(*algebra.DupElim); ok && de.In == algebra.Op(ws[0]) {
				under = true
			}
		})
		if !under {
			t.Fatalf("%s: no Π^D over the windowed step:\n%s", q, plan.Explain())
		}
		if plan.visited[ws[0]] || strings.Contains(plan.ExplainPhysical(), "fused") {
			t.Errorf("%s: windowed step fused into a visited-set step:\n%s", q, plan.ExplainPhysical())
		}
		want := interpNodes(t, q, d)
		for _, bs := range []int{1, 0} {
			plan.BatchSize = bs
			if got := runQuery(t, plan, d); !sameNodes(docOrder(got), want) {
				t.Errorf("%s batch=%d: nodes %v, interpreter %v", q, bs, names(got), names(want))
			}
		}
	}
}

// TestWindowedStepBatched: a windowed Υ serves the batched protocol, and
// stops where the scalar loop stops: the same nodes, in the same order,
// and the same Stats, at every batch size and with batching off.
func TestWindowedStepBatched(t *testing.T) {
	d, err := dom.ParseString(windowSample)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"/r/x/b[2]", "/r/x/*[position() < 4]", "/r/x/*[last()]",
		"/r/x/node()[last() - 2]", "//b[1]", "/r/*[position() <= 3]/*[last()]",
		"//g/ancestor::*[2]", "/r/x/b[1]/preceding-sibling::*[last()]",
	} {
		plan := compileQuery(t, q, translate.Improved())
		ws := windowedSteps(plan)
		if len(ws) == 0 {
			t.Fatalf("%s: no windowed step:\n%s", q, plan.Explain())
		}
		for _, w := range ws {
			if _, ok := plan.batchCol[w]; !ok {
				t.Errorf("%s: windowed step %s not batch-capable", q, w)
			}
		}
		want := interpNodes(t, q, d)
		var one *Result
		for _, bs := range []int{1, 3, 0} {
			plan.BatchSize = bs
			got, err := plan.Run(dom.Node{Doc: d, ID: d.Root()}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if one == nil {
				one = got
			}
			if !sameNodes(docOrder(got.Value), want) || !sameNodes(got.Value, one.Value) || got.Stats != one.Stats {
				t.Errorf("%s batch=%d: nodes %v stats %+v; batch=1 %v %+v; interpreter %v",
					q, bs, names(got.Value), got.Stats, names(one.Value), one.Stats, names(want))
			}
		}
		// The scalar protocol throughout: no operator marked.
		plan.batchCol = map[algebra.Op]int{}
		plan.BatchSize = 0
		got, err := plan.Run(dom.Node{Doc: d, ID: d.Root()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameNodes(got.Value, one.Value) || got.Stats != one.Stats {
			t.Errorf("%s scalar: nodes %v stats %+v; batched %v %+v",
				q, names(got.Value), got.Stats, names(one.Value), one.Stats)
		}
	}
}

// TestWindowedStepNoPathIndexCandidate: the path index answers a chain's
// node set, not its per-context positions, so no candidate chain takes in
// a windowed step; the steps below it may still be one.
func TestWindowedStepNoPathIndexCandidate(t *testing.T) {
	for _, q := range []string{"/dblp/article[1]/title", "/a/b[last()]", "/a/b[position() < 3]//c"} {
		plan := compileQuery(t, q, translate.Improved())
		plan.MarkPathIndex()
		ws := windowedSteps(plan)
		if len(ws) != 1 {
			t.Fatalf("%s: %d windowed steps, want 1", q, len(ws))
		}
		// Every operator on the path from the root to the windowed step.
		var above []algebra.Op
		for op := plan.source.Plan; ; {
			above = append(above, op)
			if op == algebra.Op(ws[0]) {
				break
			}
			op = op.Children()[0]
		}
		for _, op := range above {
			if pc := plan.pathCand[op]; pc != nil {
				t.Errorf("%s: path-index candidate [%s] at %s takes in the windowed step", q, pc.pattern, op)
			}
		}
	}
}
