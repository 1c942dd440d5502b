package codegen

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"natix/internal/algebra"
	"natix/internal/dom"
	"natix/internal/sem"
	"natix/internal/translate"
	"natix/internal/xpath"
	"natix/internal/xval"
)

func compileQuery(t *testing.T, expr string, opt translate.Options) *Plan {
	t.Helper()
	ast, err := xpath.Parse(expr)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	root, err := sem.Analyze(ast, nil)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	res, err := translate.Translate(root, opt)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	plan, err := Compile(res)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return plan
}

func runQuery(t *testing.T, plan *Plan, doc dom.Document) xval.Value {
	t.Helper()
	res, err := plan.Run(dom.Node{Doc: doc, ID: doc.Root()}, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res.Value
}

const sample = `<a><b k="1">x</b><b k="2">y</b><c>z</c></a>`

func TestRunSequence(t *testing.T) {
	d, _ := dom.ParseString(sample)
	plan := compileQuery(t, "/a/b", translate.Improved())
	v := runQuery(t, plan, d)
	if !v.IsNodeSet() || len(v.Nodes) != 2 {
		t.Fatalf("result %v", v)
	}
}

func TestRunScalar(t *testing.T) {
	d, _ := dom.ParseString(sample)
	plan := compileQuery(t, "count(/a/*) * 10", translate.Improved())
	v := runQuery(t, plan, d)
	if v.Kind != xval.KindNumber || v.N != 30 {
		t.Fatalf("result %v", v)
	}
}

func TestNilContext(t *testing.T) {
	plan := compileQuery(t, "/a", translate.Improved())
	if _, err := plan.Run(dom.Node{}, nil); err == nil {
		t.Error("nil context accepted")
	}
}

// TestAliasingSharesRegisters: renames and pure attribute maps must not
// allocate extra registers — the attribute manager resolves them.
func TestAliasingSharesRegisters(t *testing.T) {
	plan := compileQuery(t, "a | b | c", translate.Improved())
	// The three branches share the output register; with aliasing the
	// register count stays small (cn + shared out + 3 step outputs).
	if plan.numRegs > 6 {
		t.Errorf("union plan uses %d registers, aliasing broken?", plan.numRegs)
	}
	d, _ := dom.ParseString("<r><a/><c/><b/></r>")
	// Relative: context is the r element.
	r := d.FirstChild(d.Root())
	res, err := plan.Run(dom.Node{Doc: d, ID: r}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Value.Nodes) != 3 {
		t.Errorf("union result %v", res.Value.Nodes)
	}
}

func TestConcurrentRuns(t *testing.T) {
	d, _ := dom.ParseString(sample)
	plan := compileQuery(t, "/a/b[@k = '2']", translate.Improved())
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 50; j++ {
				res, err := plan.Run(dom.Node{Doc: d, ID: d.Root()}, nil)
				if err != nil {
					done <- err
					return
				}
				if len(res.Value.Nodes) != 1 {
					done <- fmt.Errorf("bad result size %d", len(res.Value.Nodes))
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestExplainOutputs(t *testing.T) {
	plan := compileQuery(t, "/a/b[1]", translate.Improved())
	if !strings.Contains(plan.Explain(), "Υ") {
		t.Errorf("explain: %s", plan.Explain())
	}
	scalar := compileQuery(t, "1 + count(//a)", translate.Improved())
	if !strings.Contains(scalar.Explain(), "count") {
		t.Errorf("scalar explain: %s", scalar.Explain())
	}
}

// TestStrEqPeephole: strval(x) =|!= 'lit' compiles to one streq after its
// operand, in either operand order, with the answer of strval + cmp; numbers,
// relational operators, variables and function results keep cmp.
func TestStrEqPeephole(t *testing.T) {
	d, err := dom.ParseString(`<a><p><year>1991</year><title>x</title></p><p><year>1995</year><title>y</title></p></a>`)
	if err != nil {
		t.Fatal(err)
	}
	vars := map[string]xval.Value{"v": xval.Str("x")}
	for _, c := range []struct {
		expr  string
		fused bool
		count int
	}{
		{"//p[year = '1991']", true, 1},
		{"//p[title != 'x']", true, 1},
		{"//p['1995' = year]", true, 1},
		{"//p[year = 1991]", false, 1},
		{"//p[year < '1995']", false, 1},
		{"//p[$v = 'x']", false, 2},
		{"//*[name() = 'title']", false, 2},
	} {
		plan := compileQuery(t, c.expr, translate.Improved())
		out := plan.ExplainPhysical()
		if fused := strings.Contains(out, "streq"); fused != c.fused {
			t.Errorf("%s: fused = %v, want %v:\n%s", c.expr, fused, c.fused, out)
		}
		if c.fused && regexp.MustCompile(`\d  strval`).MatchString(out) {
			t.Errorf("%s: strval left beside streq:\n%s", c.expr, out)
		}
		res, err := plan.Run(dom.Node{Doc: d, ID: d.Root()}, vars)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		if len(res.Value.Nodes) != c.count {
			t.Errorf("%s: %d nodes, want %d", c.expr, len(res.Value.Nodes), c.count)
		}
	}
	// Both operand orders of a hand-built σ fuse and agree.
	titles := childStep(childStep(childStep(ctxSeed(), "c0", "c1", "a"), "c1", "c2", "p"), "c2", "c3", "title")
	sv := &algebra.StrValue{X: &algebra.AttrRef{Name: "c3"}}
	lit := &algebra.Const{Val: xval.Str("y")}
	for _, cmp := range []*algebra.CompareExpr{
		{Op: xval.OpEq, L: sv, R: lit},
		{Op: xval.OpEq, L: lit, R: sv},
		{Op: xval.OpNe, L: lit, R: sv},
	} {
		p, err := Compile(&translate.Result{Plan: &algebra.Select{In: titles, Pred: cmp}, Attr: "c3"})
		if err != nil {
			t.Fatal(err)
		}
		if out := p.ExplainPhysical(); !strings.Contains(out, "streq     "+cmp.Op.String()+" 'y'") {
			t.Errorf("%s not fused:\n%s", cmp, out)
		}
		res, err := p.Run(dom.Node{Doc: d, ID: d.Root()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Value.Nodes; len(n) != 1 || n[0].StringValue() == "y" != (cmp.Op == xval.OpEq) {
			t.Errorf("%s: %v", cmp, n)
		}
	}
}

func TestExplainPhysical(t *testing.T) {
	plan := compileQuery(t, "/a/b[last()][@k = '1']", translate.Improved())
	out := plan.ExplainPhysical()
	for _, want := range []string{
		"registers:", "cn=r0", "Tmp^cs", "cmp", "loadr", "strval",
		"nested plan", "agg", "end",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ExplainPhysical missing %q:\n%s", want, out)
		}
	}
	// Scalar plans disassemble the top-level program.
	scalar := compileQuery(t, "count(//a) + 1", translate.Improved())
	sout := scalar.ExplainPhysical()
	if !strings.Contains(sout, "arith") || !strings.Contains(sout, "agg") {
		t.Errorf("scalar ExplainPhysical:\n%s", sout)
	}
}
