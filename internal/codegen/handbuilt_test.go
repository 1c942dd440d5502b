package codegen

import (
	"strings"
	"testing"

	"natix/internal/algebra"
	"natix/internal/dom"
	"natix/internal/translate"
)

// ctxSeed builds the plan prefix binding the context node to attribute c0.
func ctxSeed() algebra.Op {
	return &algebra.Map{
		In:   &algebra.SingletonScan{},
		Attr: "c0",
		Expr: &algebra.AttrRef{Name: translate.TopContextAttr},
	}
}

func childStep(in algebra.Op, inAttr, outAttr, name string) algebra.Op {
	test := dom.AnyNode
	if name != "" {
		test = dom.NodeTest{Kind: dom.TestName, Local: name}
	}
	return &algebra.UnnestMap{In: in, InAttr: inAttr, OutAttr: outAttr, Axis: dom.AxisChild, Test: test}
}

func TestHandBuiltPlanExplain(t *testing.T) {
	d, _ := dom.ParseString("<r><a/></r>")
	plan := childStep(ctxSeed(), "c0", "c1", "")
	res := &translate.Result{Plan: plan, Attr: "c1"}
	p, err := Compile(res)
	if err != nil {
		t.Fatal(err)
	}
	if p.Explain() == "" || p.ExplainPhysical() == "" {
		t.Error("empty explanations for hand-built plan")
	}
	out, err := p.Run(dom.Node{Doc: d, ID: d.Root()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Value.Nodes) != 1 {
		t.Errorf("hand-built plan result %v", out.Value.Nodes)
	}
}

// unknownOp is an operator the code generator has no case for, such as
// the μ of Fig. 1, which no translation emits.
type unknownOp struct{ In algebra.Op }

func (o *unknownOp) Children() []algebra.Op { return []algebra.Op{o.In} }
func (o *unknownOp) Produced() []string     { return []string{"out"} }
func (o *unknownOp) String() string         { return "μ[out:c1]" }

func TestHandBuiltUnsupportedOperator(t *testing.T) {
	plan := &unknownOp{In: childStep(ctxSeed(), "c0", "c1", "")}
	for _, top := range []algebra.Op{plan, &algebra.DupElim{In: plan, Attr: "out"}} {
		p, err := Compile(&translate.Result{Plan: top, Attr: "out"})
		if err == nil || !strings.Contains(err.Error(), "codegen: unsupported operator *codegen.unknownOp") {
			t.Errorf("%s: Compile = %v, %v; want the unsupported-operator error", top, p, err)
		}
	}
}
