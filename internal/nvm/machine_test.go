package nvm

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"natix/internal/dom"
	"natix/internal/sem"
	"natix/internal/xval"
)

func run(t *testing.T, m *Machine, p *Program) Val {
	t.Helper()
	v, err := m.Run(p)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v
}

func constProg(vals ...Val) *Program {
	p := &Program{Consts: vals}
	for i := range vals {
		p.Code = append(p.Code, Instr{Op: OpConst, A: i})
	}
	return p
}

func TestArith(t *testing.T) {
	p := constProg(NumVal(6), NumVal(4))
	p.Code = append(p.Code, Instr{Op: OpArith, A: int(sem.OpSub)}, Instr{Op: OpEnd})
	m := &Machine{}
	if got := run(t, m, p).Num(); got != 2 {
		t.Errorf("6-4 = %v", got)
	}
}

func TestCompareInstr(t *testing.T) {
	p := constProg(StrVal("10"), NumVal(9))
	p.Code = append(p.Code, Instr{Op: OpCompare, A: int(xval.OpGt)}, Instr{Op: OpEnd})
	if !run(t, &Machine{}, p).Bool() {
		t.Error(`"10" > 9 should hold`)
	}
}

func TestShortCircuit(t *testing.T) {
	// false and <error> must not evaluate the error branch: simulate with
	// an unbound variable in the second term.
	p := &Program{
		Consts: []Val{BoolVal(false)},
		Names:  []string{"missing"},
		Code: []Instr{
			{Op: OpConst, A: 0},
			{Op: OpShortCircuit, A: 4, B: 0}, // and: jump to end on false
			{Op: OpLoadVar, A: 0},
			{Op: OpToBool},
			{Op: OpEnd},
		},
	}
	v, err := (&Machine{}).Run(p)
	if err != nil {
		t.Fatalf("short circuit failed to skip: %v", err)
	}
	if v.Bool() {
		t.Error("false and x = true?")
	}
}

func TestLoadVarUnbound(t *testing.T) {
	p := &Program{Names: []string{"x"}, Code: []Instr{{Op: OpLoadVar, A: 0}, {Op: OpEnd}}}
	if _, err := (&Machine{Vars: map[string]xval.Value{}}).Run(p); err == nil {
		t.Error("unbound variable accepted")
	}
}

func TestRegisters(t *testing.T) {
	m := &Machine{Regs: make([]Val, 2)}
	m.Regs[1] = NumVal(7)
	p := &Program{Code: []Instr{{Op: OpLoadReg, A: 1}, {Op: OpEnd}}}
	if got := run(t, m, p).Num(); got != 7 {
		t.Errorf("reg load = %v", got)
	}
}

// sliceIter feeds predefined values into a register, for aggregate tests.
type sliceIter struct {
	m    *Machine
	reg  int
	vals []Val
	idx  int
	// opens counts Open calls, to verify re-evaluation behaviour.
	opens int
}

func (s *sliceIter) Open() error { s.idx = 0; s.opens++; return nil }
func (s *sliceIter) Next() (bool, error) {
	if s.idx >= len(s.vals) {
		return false, nil
	}
	s.m.Regs[s.reg] = s.vals[s.idx]
	s.idx++
	return true, nil
}
func (s *sliceIter) Close() error { return nil }

func TestAggregates(t *testing.T) {
	m := &Machine{Regs: make([]Val, 1)}
	feed := func(vals ...Val) { m.Subplans = []Iterator{&sliceIter{m: m, reg: 0, vals: vals}} }
	prog := func(agg AggCode) *Program {
		return &Program{Code: []Instr{{Op: OpAgg, A: 0, B: int(agg), C: 0}, {Op: OpEnd}}}
	}

	feed(NumVal(1), NumVal(2), NumVal(3))
	if got := run(t, m, prog(AggCount)).Num(); got != 3 {
		t.Errorf("count = %v", got)
	}
	if got := run(t, m, prog(AggSum)).Num(); got != 6 {
		t.Errorf("sum = %v", got)
	}
	if got := run(t, m, prog(AggMax)).Num(); got != 3 {
		t.Errorf("max = %v", got)
	}
	if got := run(t, m, prog(AggMin)).Num(); got != 1 {
		t.Errorf("min = %v", got)
	}
	if !run(t, m, prog(AggExists)).Bool() {
		t.Error("exists of non-empty = false")
	}

	feed()
	if run(t, m, prog(AggExists)).Bool() {
		t.Error("exists of empty = true")
	}
	if got := run(t, m, prog(AggCount)).Num(); got != 0 {
		t.Errorf("count empty = %v", got)
	}
	if got := run(t, m, prog(AggMax)).Num(); !math.IsNaN(got) {
		t.Errorf("max empty = %v, want NaN", got)
	}
	if got := run(t, m, prog(AggFirstNode)).Value(); !got.IsNodeSet() || len(got.Nodes) != 0 {
		t.Errorf("first of empty = %v", got)
	}
}

func TestAggExistsEarlyExit(t *testing.T) {
	m := &Machine{Regs: make([]Val, 1)}
	it := &sliceIter{m: m, reg: 0, vals: []Val{NumVal(1), NumVal(2), NumVal(3)}}
	m.Subplans = []Iterator{it}
	p := &Program{Code: []Instr{{Op: OpAgg, A: 0, B: int(AggExists), C: 0}, {Op: OpEnd}}}
	if !run(t, m, p).Bool() {
		t.Fatal("exists = false")
	}
	// Smart aggregation: only one tuple consumed.
	if it.idx != 1 {
		t.Errorf("exists consumed %d tuples, want 1", it.idx)
	}
}

func TestAggFirstNodeDocOrder(t *testing.T) {
	d, err := dom.ParseString("<a><b/><c/></a>")
	if err != nil {
		t.Fatal(err)
	}
	var b, c dom.NodeID
	for id := dom.NodeID(1); int(id) <= d.NodeCount(); id++ {
		switch d.LocalName(id) {
		case "b":
			b = id
		case "c":
			c = id
		}
	}
	m := &Machine{Regs: make([]Val, 1)}
	// Feed out of document order; first-node must pick b.
	m.Subplans = []Iterator{&sliceIter{m: m, reg: 0, vals: []Val{
		NodeVal(dom.Node{Doc: d, ID: c}), NodeVal(dom.Node{Doc: d, ID: b}),
	}}}
	p := &Program{Code: []Instr{{Op: OpAgg, A: 0, B: int(AggFirstNode), C: 0}, {Op: OpEnd}}}
	v := run(t, m, p)
	if !v.IsNode() || v.Node().ID != b {
		t.Errorf("first node = %v, want #%d", v, b)
	}
}

func TestMemoInstr(t *testing.T) {
	m := &Machine{Regs: make([]Val, 1), Memos: make([]map[any]Val, 1)}
	m.Regs[0] = StrVal("key1")
	// memo[reg0] { const 42 }
	p := &Program{
		Consts: []Val{NumVal(42)},
		Code: []Instr{
			{Op: OpMemoCheck, A: 0, B: 0, C: 3},
			{Op: OpConst, A: 0},
			{Op: OpMemoStore, A: 0, B: 0},
			{Op: OpEnd},
		},
	}
	if got := run(t, m, p).Num(); got != 42 {
		t.Fatalf("first eval = %v", got)
	}
	// Change the constant table; a cache hit must still return 42.
	p.Consts[0] = NumVal(99)
	if got := run(t, m, p).Num(); got != 42 {
		t.Errorf("memo miss on same key: got %v", got)
	}
	m.Regs[0] = StrVal("key2")
	if got := run(t, m, p).Num(); got != 99 {
		t.Errorf("different key should re-evaluate: got %v", got)
	}
}

func TestCallFunctions(t *testing.T) {
	m := &Machine{}
	call := func(id sem.FuncID, args ...Val) Val {
		p := constProg(args...)
		p.Code = append(p.Code, Instr{Op: OpCall, A: int(id), B: len(args)}, Instr{Op: OpEnd})
		return run(t, m, p)
	}
	if got := call(sem.FnConcat, StrVal("a"), NumVal(1), BoolVal(true)).Str(); got != "a1true" {
		t.Errorf("concat = %q", got)
	}
	if got := call(sem.FnString, NumVal(2.5)).Str(); got != "2.5" {
		t.Errorf("string = %q", got)
	}
	if !call(sem.FnBoolean, StrVal("x")).Bool() {
		t.Error("boolean('x')")
	}
	if got := call(sem.FnCount, ScalarVal(xval.NodeSet(nil))).Num(); got != 0 {
		t.Errorf("count(empty) = %v", got)
	}
	if _, err := m.Run(&Program{
		Consts: []Val{NumVal(1)},
		Code:   []Instr{{Op: OpConst, A: 0}, {Op: OpCall, A: int(sem.FnCount), B: 1}, {Op: OpEnd}},
	}); err == nil {
		t.Error("count(number) accepted")
	}
	if got := call(sem.FnSubstring, StrVal("hello"), NumVal(2), NumVal(3)).Str(); got != "ell" {
		t.Errorf("substring = %q", got)
	}
}

func TestNameFunctionsOnNodes(t *testing.T) {
	d, _ := dom.ParseString(`<a xmlns:p="urn:p"><p:b/></a>`)
	var b dom.NodeID
	for id := dom.NodeID(1); int(id) <= d.NodeCount(); id++ {
		if d.Kind(id) == dom.KindElement && d.LocalName(id) == "b" {
			b = id
		}
	}
	m := &Machine{}
	node := NodeVal(dom.Node{Doc: d, ID: b})
	for id, want := range map[sem.FuncID]string{
		sem.FnLocalName:    "b",
		sem.FnName:         "p:b",
		sem.FnNamespaceURI: "urn:p",
	} {
		p := constProg(node)
		p.Code = append(p.Code, Instr{Op: OpCall, A: int(id), B: 1}, Instr{Op: OpEnd})
		if got := run(t, m, p).Str(); got != want {
			t.Errorf("func %d = %q, want %q", id, got, want)
		}
	}
}

func TestRootInstr(t *testing.T) {
	d, _ := dom.ParseString("<a><b/></a>")
	b := d.FirstChild(d.FirstChild(d.Root()))
	m := &Machine{}
	p := constProg(NodeVal(dom.Node{Doc: d, ID: b}))
	p.Code = append(p.Code, Instr{Op: OpRoot}, Instr{Op: OpEnd})
	v := run(t, m, p)
	if !v.IsNode() || v.Node().ID != d.Root() {
		t.Errorf("root = %v", v)
	}
}

func TestPredTruthInstr(t *testing.T) {
	m := &Machine{}
	p := constProg(NumVal(3), NumVal(3))
	p.Code = append(p.Code, Instr{Op: OpPredTruth}, Instr{Op: OpEnd})
	if !run(t, m, p).Bool() {
		t.Error("pred-truth(3, 3) = false")
	}
	p2 := constProg(StrVal("x"), NumVal(9))
	p2.Code = append(p2.Code, Instr{Op: OpPredTruth}, Instr{Op: OpEnd})
	if !run(t, m, p2).Bool() {
		t.Error(`pred-truth("x", 9) should be boolean("x") = true`)
	}
}

// Property: nvm.Compare on scalar values agrees with xval.Compare.
func TestCompareAgreesWithXval(t *testing.T) {
	ops := []xval.CompareOp{xval.OpEq, xval.OpNe, xval.OpLt, xval.OpLe, xval.OpGt, xval.OpGe}
	f := func(a, b float64, sa, sb string, opIdx uint8) bool {
		op := ops[int(opIdx)%len(ops)]
		pairs := [][2]xval.Value{
			{xval.Num(a), xval.Num(b)},
			{xval.Str(sa), xval.Str(sb)},
			{xval.Num(a), xval.Str(sb)},
			{xval.Bool(a > 0), xval.Num(b)},
		}
		for _, pr := range pairs {
			if Compare(op, ScalarVal(pr[0]), ScalarVal(pr[1])) != xval.Compare(op, pr[0], pr[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCompareNodeFastPath(t *testing.T) {
	d, _ := dom.ParseString("<a><b>5</b><c>7</c></a>")
	var b, c dom.NodeID
	for id := dom.NodeID(1); int(id) <= d.NodeCount(); id++ {
		switch d.LocalName(id) {
		case "b":
			b = id
		case "c":
			c = id
		}
	}
	nb := NodeVal(dom.Node{Doc: d, ID: b})
	nc := NodeVal(dom.Node{Doc: d, ID: c})
	if !Compare(xval.OpLt, nb, nc) {
		t.Error("5 < 7 via nodes")
	}
	if !Compare(xval.OpEq, nb, ScalarVal(xval.Num(5))) {
		t.Error("node = 5")
	}
	if !Compare(xval.OpEq, ScalarVal(xval.Str("7")), nc) {
		t.Error("'7' = node")
	}
	if !Compare(xval.OpEq, nb, ScalarVal(xval.Bool(true))) {
		t.Error("node = true (singleton node-set is true)")
	}
}

func TestValKey(t *testing.T) {
	d, _ := dom.ParseString("<a/>")
	n1 := NodeVal(dom.Node{Doc: d, ID: 2})
	n2 := NodeVal(dom.Node{Doc: d, ID: 2})
	if n1.Key() != n2.Key() {
		t.Error("same node, different keys")
	}
	if NodeVal(dom.Node{Doc: d, ID: 1}).Key() == n1.Key() {
		t.Error("different nodes, same key")
	}
	if StrVal("1").Key() == NumVal(1).Key() {
		t.Error("string and number keys collide")
	}
}

// countingSource is a program source that counts its renderings.
type countingSource struct {
	text string
	n    int
}

func (s *countingSource) String() string { s.n++; return s.text }

func TestDisasm(t *testing.T) {
	src := &countingSource{text: "(a and $v) = 2"}
	p := &Program{
		Source: src,
		Consts: []Val{NumVal(2), StrVal("x")},
		Names:  []string{"v"},
		Code: []Instr{
			{Op: OpConst, A: 0},
			{Op: OpConst, A: 1},
			{Op: OpLoadVar, A: 0},
			{Op: OpShortCircuit, A: 5, B: 1},
			{Op: OpToBool},
			{Op: OpLoadReg, A: 3},
			{Op: OpStrValue},
			{Op: OpCompare, A: int(xval.OpEq)},
			{Op: OpCall, A: int(sem.FnNot), B: 1},
			{Op: OpAgg, A: 0, B: int(AggCount), C: 2},
			{Op: OpMemoCheck, A: 1, B: -1, C: 12},
			{Op: OpMemoStore, A: 1, B: 4},
			{Op: OpEnd},
		},
	}
	out := p.Disasm()
	for _, want := range []string{
		"; (a and $v) = 2", "const     2", "const     'x'", "loadv     $v",
		"brdec     or -> 5", "tobool", "loadr     r3", "strval",
		"cmp       =", "call      not/1", "agg       count plan#0 r2",
		"mchk      cache#1 key=· -> 12", "msto      cache#1 key=r4", "end",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Disasm missing %q:\n%s", want, out)
		}
	}
	// The source is rendered on each call, never cached on the program.
	if again := p.Disasm(); again != out || src.n != 2 {
		t.Errorf("second Disasm rendered the source %d times in all, equal=%v", src.n, again == out)
	}
	// A hand-built program without a source has no header line.
	p.Source = nil
	if out := p.Disasm(); strings.HasPrefix(out, ";") {
		t.Errorf("sourceless Disasm has a header:\n%s", out)
	}
}
