package nvm

import (
	"fmt"
	"math"
	"strings"
	"time"

	"natix/internal/dom"
	"natix/internal/guard"
	"natix/internal/sem"
	"natix/internal/xfn"
	"natix/internal/xval"
)

// Iterator is the open/next/close protocol of the physical algebra [9]; the
// machine drives nested iterators through it for aggregation subscripts
// (paper section 5.2.3).
type Iterator interface {
	Open() error
	Next() (bool, error)
	Close() error
}

// BatchIterator extends Iterator with the batched node-column protocol: an
// operator whose output is a single node-valued attribute can deliver it a
// buffer at a time, amortizing the interface dispatch, governor poll and
// statistics update of the scalar protocol over len(buf) tuples. Open and
// Close are shared with the scalar protocol; a consumer picks exactly one
// of Next or NextBatch for the lifetime of an Open, never mixing them.
type BatchIterator interface {
	Iterator
	// Batched reports whether this instance serves NextBatch for the
	// current execution (the code generator marks batch-capable pipeline
	// segments). When false, only the scalar protocol may be used.
	Batched() bool
	// NextBatch fills buf with the next nodes of the operator's output
	// column and returns how many it wrote. 0 with a nil error means the
	// input is exhausted; short batches are legal at any point. Unlike
	// Next, produced nodes are returned in the buffer and NOT written to
	// the machine's registers.
	NextBatch(buf []dom.Node) (int, error)
}

// OpCode enumerates the machine's instructions.
type OpCode uint8

// Instruction opcodes. The machine is stack-based; instructions pop their
// operands and push one result unless noted.
const (
	// OpConst pushes Consts[A].
	OpConst OpCode = iota
	// OpLoadReg pushes register A.
	OpLoadReg
	// OpLoadVar pushes the XPath variable Names[A]; unbound is an error.
	OpLoadVar
	// OpArith pops b, a and pushes a <A> b with A a sem.ArithOp.
	OpArith
	// OpNeg pops a and pushes -number(a).
	OpNeg
	// OpCompare pops b, a and pushes boolean a <A> b with A an
	// xval.CompareOp (full section 3.4 semantics).
	OpCompare
	// OpShortCircuit pops v; if bool(v) == (B != 0) it pushes that boolean
	// and jumps to A, otherwise execution falls through (nothing pushed).
	OpShortCircuit
	// OpToBool pops v and pushes boolean(v).
	OpToBool
	// OpCall pops B arguments (last on top) and calls function A
	// (a sem.FuncID), pushing the result.
	OpCall
	// OpStrValue pops a node (or value) and pushes its string-value.
	OpStrValue
	// OpStrEq pops a node (or value) and pushes whether its string-value
	// equals the string Consts[A], negated when B != 0: strval + const +
	// cmp =/!= in one instruction that compares a node in place.
	OpStrEq
	// OpRoot pops a node and pushes its document node.
	OpRoot
	// OpAgg runs nested iterator Subplans[A] with aggregate B (an AggCode),
	// reading register C after each tuple, and pushes the aggregate.
	OpAgg
	// OpPredTruth pops pos, x and pushes the predicate truth of x at pos.
	OpPredTruth
	// OpMemoCheck probes memo cache A with the key in register B (-1 for a
	// constant key); on a hit it pushes the cached value and jumps to C.
	OpMemoCheck
	// OpMemoStore stores the top of stack (not popped) into memo cache A
	// under the key in register B.
	OpMemoStore
	// OpEnd stops execution; the result is the top of stack.
	OpEnd
)

// AggCode mirrors algebra.AggKind for the OpAgg instruction (kept separate
// to avoid an import cycle; codegen converts).
type AggCode uint8

// Aggregate codes.
const (
	AggExists AggCode = iota
	AggCount
	AggSum
	AggMax
	AggMin
	AggFirstNode
	AggCollect
)

// Instr is one instruction.
type Instr struct {
	Op      OpCode
	A, B, C int
}

// Program is a compiled subscript.
type Program struct {
	Code   []Instr
	Consts []Val
	Names  []string // variable names for OpLoadVar
	// Source is the scalar expression the program was compiled from. Explain
	// output renders it on each call; compilation never does, because
	// nothing on the run path reads the text. Nil for hand-built programs.
	Source fmt.Stringer
	// ID is the program's index in its plan (assigned by the code
	// generator); instrumented runs account per-program statistics under
	// it. Hand-built programs may leave it zero — they run on machines
	// without a Prof.
	ID int
}

// ProgStat accounts one subscript program's executions during an
// instrumented run (ExplainAnalyze).
type ProgStat struct {
	// Runs counts completed executions of the program.
	Runs int64
	// Steps counts instructions executed across completed runs (failed
	// runs are not charged, matching the governor's accounting).
	Steps int64
	// Time is the wall time spent across all runs of the program,
	// including nested iterators it drives through OpAgg.
	Time time.Duration
}

// Machine executes programs. One machine exists per query execution; its
// register file is shared with all iterators of the plan (the attribute
// manager of section 5.1 maps attributes to registers at compile time).
type Machine struct {
	Regs []Val
	// Vars are the XPath $ variable bindings of the execution context.
	Vars map[string]xval.Value
	// Subplans are the instantiated nested iterators referenced by OpAgg.
	Subplans []Iterator
	// Memos are the per-execution caches of OpMemoCheck/OpMemoStore.
	Memos []map[any]Val
	// NoEarlyExit disables the premature termination of aggregates
	// (section 5.2.5), for the smart-aggregation ablation benchmark.
	NoEarlyExit bool
	// Gov is the execution governor (nil for unguarded hand-built runs):
	// each program run charges its instruction count, bounding runaway
	// subscript work and giving scalar-heavy plans cancellation points.
	Gov *guard.Governor
	// Prof, when non-nil, accumulates per-program statistics indexed by
	// Program.ID (instrumented runs only).
	Prof []ProgStat

	stack []Val
	// lastSteps is the instruction count of the most recently completed
	// program run, read by the profiling wrapper.
	lastSteps int64
}

// Run executes a program and returns the value left on top of the stack.
// Programs may re-enter the machine through nested iterators (OpAgg drives
// subplans whose selections run their own programs), so the evaluation
// stack is shared and each activation works above its saved base.
func (m *Machine) Run(p *Program) (Val, error) {
	if m.Prof != nil && p.ID >= 0 && p.ID < len(m.Prof) {
		m.lastSteps = 0
		t0 := time.Now()
		v, err := m.run(p)
		st := &m.Prof[p.ID]
		st.Runs++
		st.Steps += m.lastSteps
		st.Time += time.Since(t0)
		return v, err
	}
	return m.run(p)
}

func (m *Machine) run(p *Program) (v Val, err error) {
	base := len(m.stack)
	defer func() { m.stack = m.stack[:base] }()
	pc := 0
	steps := int64(0)
	for {
		in := p.Code[pc]
		steps++
		switch in.Op {
		case OpConst:
			m.stack = append(m.stack, p.Consts[in.A])
		case OpLoadReg:
			m.stack = append(m.stack, m.Regs[in.A])
		case OpLoadVar:
			name := p.Names[in.A]
			v, ok := m.Vars[name]
			if !ok {
				return Val{}, fmt.Errorf("nvm: unbound variable $%s", name)
			}
			m.stack = append(m.stack, ScalarVal(v))
		case OpArith:
			b, a := m.pop(), m.top()
			*a = NumVal(sem.ArithOp(in.A).Apply(a.Num(), b.Num()))
		case OpNeg:
			a := m.top()
			*a = NumVal(-a.Num())
		case OpCompare:
			b, a := m.pop(), m.top()
			*a = BoolVal(Compare(xval.CompareOp(in.A), *a, b))
		case OpShortCircuit:
			v := m.pop()
			if b := v.Bool(); b == (in.B != 0) {
				m.stack = append(m.stack, BoolVal(b))
				pc = in.A
				continue
			}
		case OpToBool:
			a := m.top()
			*a = BoolVal(a.Bool())
		case OpCall:
			n := in.B
			args := m.stack[len(m.stack)-n:]
			v, err := m.call(sem.FuncID(in.A), args)
			if err != nil {
				return Val{}, err
			}
			m.stack = m.stack[:len(m.stack)-n]
			m.stack = append(m.stack, v)
		case OpStrValue:
			a := m.top()
			*a = StrVal(a.Str())
		case OpStrEq:
			a := m.top()
			*a = BoolVal(a.strEquals(p.Consts[in.A].val.S) != (in.B != 0))
		case OpRoot:
			a := m.top()
			n := a.Node()
			if n.IsNil() {
				if v := a.Value(); v.IsNodeSet() && len(v.Nodes) > 0 {
					n = v.Nodes[0]
				} else {
					return Val{}, fmt.Errorf("nvm: root() of non-node value")
				}
			}
			*a = NodeVal(dom.Node{Doc: n.Doc, ID: n.Doc.Root()})
		case OpAgg:
			v, err := m.aggregate(m.Subplans[in.A], AggCode(in.B), in.C)
			if err != nil {
				return Val{}, err
			}
			m.stack = append(m.stack, v)
		case OpPredTruth:
			pos, x := m.pop(), m.top()
			v := x.Value()
			if v.Kind == xval.KindNumber {
				*x = BoolVal(v.N == pos.Num())
			} else {
				*x = BoolVal(x.Bool())
			}
		case OpMemoCheck:
			cache := m.Memos[in.A]
			if cache != nil {
				if v, ok := cache[m.memoKey(in.B)]; ok {
					m.stack = append(m.stack, v)
					pc = in.C
					continue
				}
			}
		case OpMemoStore:
			if m.Memos[in.A] == nil {
				m.Memos[in.A] = make(map[any]Val)
			}
			m.Memos[in.A][m.memoKey(in.B)] = m.stack[len(m.stack)-1]
		case OpEnd:
			if len(m.stack) == base {
				return Val{}, fmt.Errorf("nvm: program left no result")
			}
			// Programs contain no backward jumps, so one charge at the
			// end covers the whole (bounded) run.
			m.lastSteps = steps
			if err := m.Gov.Steps(steps); err != nil {
				return Val{}, err
			}
			return m.stack[len(m.stack)-1], nil
		default:
			return Val{}, fmt.Errorf("nvm: bad opcode %d", in.Op)
		}
		pc++
	}
}

func (m *Machine) pop() Val {
	v := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]
	return v
}

func (m *Machine) top() *Val { return &m.stack[len(m.stack)-1] }

// RunBool executes a program and converts the result to a boolean.
func (m *Machine) RunBool(p *Program) (bool, error) {
	v, err := m.Run(p)
	if err != nil {
		return false, err
	}
	return v.Bool(), nil
}

func (m *Machine) memoKey(reg int) any {
	if reg < 0 {
		return struct{}{}
	}
	return m.Regs[reg].Key()
}

// nodeBytes is the approximate materialization cost of one collected node
// handle, for the byte budget.
const nodeBytes = 24

// aggregate drives a nested iterator, implementing the 𝔄 programs of
// section 5.2.5 with premature termination where the aggregate allows it.
func (m *Machine) aggregate(it Iterator, agg AggCode, attrReg int) (Val, error) {
	if err := it.Open(); err != nil {
		return Val{}, err
	}
	defer it.Close()

	count := 0
	sum := 0.0
	best := math.NaN()
	var first dom.Node
	var collected []dom.Node
	for {
		ok, err := it.Next()
		if err != nil {
			return Val{}, err
		}
		if !ok {
			break
		}
		switch agg {
		case AggExists:
			if !m.NoEarlyExit {
				// Smart aggregation: one tuple decides the result.
				return BoolVal(true), nil
			}
			count++
		case AggCount:
			count++
		case AggSum:
			sum += m.Regs[attrReg].Num()
		case AggMax:
			n := m.Regs[attrReg].Num()
			if math.IsNaN(best) || n > best {
				best = n
			}
		case AggMin:
			n := m.Regs[attrReg].Num()
			if math.IsNaN(best) || n < best {
				best = n
			}
		case AggFirstNode:
			n := m.Regs[attrReg].Node()
			if first.IsNil() || dom.CompareOrder(n, first) < 0 {
				first = n
			}
		case AggCollect:
			if err := m.Gov.Grow(nodeBytes); err != nil {
				return Val{}, err
			}
			collected = append(collected, m.Regs[attrReg].Node())
		}
	}
	switch agg {
	case AggExists:
		return BoolVal(count > 0), nil
	case AggCount:
		return NumVal(float64(count)), nil
	case AggSum:
		return NumVal(sum), nil
	case AggMax, AggMin:
		return NumVal(best), nil
	case AggFirstNode:
		if first.IsNil() {
			return ScalarVal(xval.NodeSet(nil)), nil
		}
		return NodeVal(first), nil
	case AggCollect:
		return ScalarVal(xval.NodeSet(collected)), nil
	}
	return Val{}, fmt.Errorf("nvm: bad aggregate %d", agg)
}

// call dispatches an OpCall. Arguments arrive in declaration order.
func (m *Machine) call(id sem.FuncID, args []Val) (Val, error) {
	switch id {
	case sem.FnString:
		return StrVal(args[0].Str()), nil
	case sem.FnNumber:
		return NumVal(args[0].Num()), nil
	case sem.FnBoolean:
		return BoolVal(args[0].Bool()), nil
	case sem.FnLocalName, sem.FnNamespaceURI, sem.FnName:
		return nameFunc(id, args[0])
	case sem.FnLang:
		ctx := args[0].Node()
		if ctx.IsNil() {
			return Val{}, fmt.Errorf("nvm: lang() without a context node")
		}
		return BoolVal(xfn.Lang(ctx, args[1].Str())), nil
	case sem.FnCount:
		v := args[0].Value()
		if !v.IsNodeSet() {
			return Val{}, fmt.Errorf("nvm: count() over %s", v.Kind)
		}
		return NumVal(float64(len(v.Nodes))), nil
	case sem.FnSum:
		v := args[0].Value()
		if !v.IsNodeSet() {
			return Val{}, fmt.Errorf("nvm: sum() over %s", v.Kind)
		}
		return NumVal(xfn.Sum(v.Nodes)), nil
	case sem.FnConcat:
		var sb strings.Builder
		for _, a := range args {
			sb.WriteString(a.Str())
		}
		return StrVal(sb.String()), nil
	}
	// Remaining simple functions evaluate on converted values.
	xargs := make([]xval.Value, len(args))
	for i, a := range args {
		xargs[i] = a.Value()
	}
	if v, ok := sem.EvalSimpleString(id, xargs); ok {
		return ScalarVal(v), nil
	}
	return Val{}, fmt.Errorf("nvm: unsupported function id %d", id)
}

func nameFunc(id sem.FuncID, arg Val) (Val, error) {
	var n dom.Node
	if arg.IsNode() {
		n = arg.Node()
	} else {
		v := arg.Value()
		if !v.IsNodeSet() {
			return Val{}, fmt.Errorf("nvm: name function over %s", v.Kind)
		}
		if len(v.Nodes) == 0 {
			return StrVal(""), nil
		}
		n = xfn.FirstInDocOrder(v.Nodes)
	}
	switch id {
	case sem.FnLocalName:
		return StrVal(n.LocalName()), nil
	case sem.FnNamespaceURI:
		return StrVal(n.NamespaceURI()), nil
	default:
		return StrVal(n.Name()), nil
	}
}
