package codegen

import (
	"fmt"

	"natix/internal/algebra"
	"natix/internal/nvm"
	"natix/internal/xval"
)

// progBuilder accumulates one NVM program.
type progBuilder struct {
	g     *generator
	code  []nvm.Instr
	prog  *nvm.Program
	names map[string]int
}

// compileScalar compiles a subscript expression to an NVM program
// (section 5.2.2: non-sequence-valued subscripts become assembler-like
// programs).
func (g *generator) compileScalar(s algebra.Scalar) (*nvm.Program, error) {
	pb := &progBuilder{g: g, prog: &nvm.Program{Source: s, ID: g.plan.numProgs}, names: map[string]int{}}
	g.plan.numProgs++
	if err := pb.emit(s); err != nil {
		return nil, err
	}
	pb.code = append(pb.code, nvm.Instr{Op: nvm.OpEnd})
	pb.prog.Code = pb.code
	return pb.prog, nil
}

func (pb *progBuilder) emit(s algebra.Scalar) error {
	switch n := s.(type) {
	case *algebra.Const:
		idx := len(pb.prog.Consts)
		pb.prog.Consts = append(pb.prog.Consts, nvm.ScalarVal(n.Val))
		pb.code = append(pb.code, nvm.Instr{Op: nvm.OpConst, A: idx})
	case *algebra.AttrRef:
		pb.code = append(pb.code, nvm.Instr{Op: nvm.OpLoadReg, A: pb.g.regFor(n.Name)})
	case *algebra.XVar:
		idx, ok := pb.names[n.Name]
		if !ok {
			idx = len(pb.prog.Names)
			pb.prog.Names = append(pb.prog.Names, n.Name)
			pb.names[n.Name] = idx
		}
		pb.code = append(pb.code, nvm.Instr{Op: nvm.OpLoadVar, A: idx})
	case *algebra.Root:
		if err := pb.emit(n.X); err != nil {
			return err
		}
		pb.code = append(pb.code, nvm.Instr{Op: nvm.OpRoot})
	case *algebra.StrValue:
		if err := pb.emit(n.X); err != nil {
			return err
		}
		pb.code = append(pb.code, nvm.Instr{Op: nvm.OpStrValue})
	case *algebra.ArithExpr:
		if err := pb.emit(n.L); err != nil {
			return err
		}
		if err := pb.emit(n.R); err != nil {
			return err
		}
		pb.code = append(pb.code, nvm.Instr{Op: nvm.OpArith, A: int(n.Op)})
	case *algebra.NegExpr:
		if err := pb.emit(n.X); err != nil {
			return err
		}
		pb.code = append(pb.code, nvm.Instr{Op: nvm.OpNeg})
	case *algebra.CompareExpr:
		if x, lit, ok := strEqOperands(n); ok {
			if err := pb.emit(x); err != nil {
				return err
			}
			neg := 0
			if n.Op == xval.OpNe {
				neg = 1
			}
			idx := len(pb.prog.Consts)
			pb.prog.Consts = append(pb.prog.Consts, nvm.ScalarVal(lit))
			pb.code = append(pb.code, nvm.Instr{Op: nvm.OpStrEq, A: idx, B: neg})
			return nil
		}
		if err := pb.emit(n.L); err != nil {
			return err
		}
		if err := pb.emit(n.R); err != nil {
			return err
		}
		pb.code = append(pb.code, nvm.Instr{Op: nvm.OpCompare, A: int(n.Op)})
	case *algebra.LogicExpr:
		return pb.emitLogic(n)
	case *algebra.FuncExpr:
		for _, a := range n.Args {
			if err := pb.emit(a); err != nil {
				return err
			}
		}
		pb.code = append(pb.code, nvm.Instr{Op: nvm.OpCall, A: int(n.ID), B: len(n.Args)})
	case *algebra.NestedAgg:
		b, err := pb.g.compile(n.Plan)
		if err != nil {
			return err
		}
		idx := len(pb.g.plan.subplans)
		pb.g.plan.subplans = append(pb.g.plan.subplans, b)
		attrReg := pb.g.regFor(n.Attr)
		pb.code = append(pb.code, nvm.Instr{
			Op: nvm.OpAgg, A: idx, B: int(aggCode(n.Agg)), C: attrReg,
		})
	case *algebra.PredTruth:
		if err := pb.emit(n.X); err != nil {
			return err
		}
		if err := pb.emit(n.Pos); err != nil {
			return err
		}
		pb.code = append(pb.code, nvm.Instr{Op: nvm.OpPredTruth})
	case *algebra.Memo:
		cache := pb.g.plan.numMemos
		pb.g.plan.numMemos++
		keyReg := -1
		if n.KeyAttr != "" {
			keyReg = pb.g.regFor(n.KeyAttr)
		}
		checkAt := len(pb.code)
		pb.code = append(pb.code, nvm.Instr{Op: nvm.OpMemoCheck, A: cache, B: keyReg})
		if err := pb.emit(n.X); err != nil {
			return err
		}
		pb.code = append(pb.code, nvm.Instr{Op: nvm.OpMemoStore, A: cache, B: keyReg})
		pb.code[checkAt].C = len(pb.code) // hit: resume after the store
	default:
		return fmt.Errorf("codegen: unsupported scalar %T", s)
	}
	return nil
}

// emitLogic compiles short-circuit and/or: each term but the last jumps
// past the whole expression as soon as it decides the result.
func (pb *progBuilder) emitLogic(n *algebra.LogicExpr) error {
	decider := 0
	if n.Or {
		decider = 1
	}
	var patches []int
	for i, t := range n.Terms {
		if err := pb.emit(t); err != nil {
			return err
		}
		if i < len(n.Terms)-1 {
			patches = append(patches, len(pb.code))
			pb.code = append(pb.code, nvm.Instr{Op: nvm.OpShortCircuit, B: decider})
		} else {
			pb.code = append(pb.code, nvm.Instr{Op: nvm.OpToBool})
		}
	}
	end := len(pb.code)
	for _, p := range patches {
		pb.code[p].A = end
	}
	return nil
}

// strEqOperands matches strval(x) = 'lit' and strval(x) != 'lit' in either
// operand order and returns x and the literal: the shape OpStrEq runs in one
// instruction. Numbers, booleans, relational operators and anything but a
// string constant opposite the strval keep OpCompare.
func strEqOperands(n *algebra.CompareExpr) (algebra.Scalar, xval.Value, bool) {
	if n.Op != xval.OpEq && n.Op != xval.OpNe {
		return nil, xval.Value{}, false
	}
	sv, c := n.L, n.R
	if _, ok := sv.(*algebra.StrValue); !ok {
		sv, c = c, sv
	}
	s, ok := sv.(*algebra.StrValue)
	k, isConst := c.(*algebra.Const)
	if !ok || !isConst || k.Val.Kind != xval.KindString {
		return nil, xval.Value{}, false
	}
	return s.X, k.Val, true
}

func aggCode(k algebra.AggKind) nvm.AggCode {
	switch k {
	case algebra.AggExists:
		return nvm.AggExists
	case algebra.AggCount:
		return nvm.AggCount
	case algebra.AggSum:
		return nvm.AggSum
	case algebra.AggMax:
		return nvm.AggMax
	case algebra.AggMin:
		return nvm.AggMin
	case algebra.AggFirstNode:
		return nvm.AggFirstNode
	default:
		return nvm.AggCollect
	}
}
