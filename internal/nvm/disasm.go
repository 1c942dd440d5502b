package nvm

import (
	"fmt"
	"strings"

	"natix/internal/sem"
	"natix/internal/xval"
)

var opNames = [...]string{
	OpConst:        "const",
	OpLoadReg:      "loadr",
	OpLoadVar:      "loadv",
	OpArith:        "arith",
	OpNeg:          "neg",
	OpCompare:      "cmp",
	OpShortCircuit: "brdec",
	OpToBool:       "tobool",
	OpCall:         "call",
	OpStrValue:     "strval",
	OpStrEq:        "streq",
	OpRoot:         "root",
	OpAgg:          "agg",
	OpPredTruth:    "predtruth",
	OpMemoCheck:    "mchk",
	OpMemoStore:    "msto",
	OpEnd:          "end",
}

// SourceText renders the expression the program was compiled from, or ""
// when it has none.
func (p *Program) SourceText() string {
	if p.Source == nil {
		return ""
	}
	return p.Source.String()
}

// Disasm renders the program in the assembler-like form the paper
// describes for NVM programs (section 5.2.2), one instruction per line.
func (p *Program) Disasm() string {
	var sb strings.Builder
	if src := p.SourceText(); src != "" {
		fmt.Fprintf(&sb, "; %s\n", src)
	}
	for i, in := range p.Code {
		fmt.Fprintf(&sb, "%3d  %-9s", i, opNames[in.Op])
		switch in.Op {
		case OpConst:
			fmt.Fprintf(&sb, " %s", formatVal(p.Consts[in.A]))
		case OpLoadReg:
			fmt.Fprintf(&sb, " r%d", in.A)
		case OpLoadVar:
			fmt.Fprintf(&sb, " $%s", p.Names[in.A])
		case OpArith:
			fmt.Fprintf(&sb, " %s", sem.ArithOp(in.A))
		case OpCompare:
			fmt.Fprintf(&sb, " %s", xval.CompareOp(in.A))
		case OpStrEq:
			op := xval.OpEq
			if in.B != 0 {
				op = xval.OpNe
			}
			fmt.Fprintf(&sb, " %s %s", op, formatVal(p.Consts[in.A]))
		case OpShortCircuit:
			mode := "and"
			if in.B != 0 {
				mode = "or"
			}
			fmt.Fprintf(&sb, " %s -> %d", mode, in.A)
		case OpCall:
			fmt.Fprintf(&sb, " %s/%d", sem.FunctionByID(sem.FuncID(in.A)).Name, in.B)
		case OpAgg:
			fmt.Fprintf(&sb, " %s plan#%d r%d", aggNames[in.B], in.A, in.C)
		case OpMemoCheck:
			fmt.Fprintf(&sb, " cache#%d key=%s -> %d", in.A, regOrConst(in.B), in.C)
		case OpMemoStore:
			fmt.Fprintf(&sb, " cache#%d key=%s", in.A, regOrConst(in.B))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

var aggNames = [...]string{
	AggExists: "exists", AggCount: "count", AggSum: "sum",
	AggMax: "max", AggMin: "min", AggFirstNode: "first", AggCollect: "collect",
}

func regOrConst(reg int) string {
	if reg < 0 {
		return "·"
	}
	return fmt.Sprintf("r%d", reg)
}

func formatVal(v Val) string {
	if v.IsNode() {
		return v.Node().String()
	}
	x := v.Value()
	if x.Kind == xval.KindString {
		return "'" + x.S + "'"
	}
	return x.String()
}
