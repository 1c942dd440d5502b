package algebra

import (
	"fmt"
	"strings"

	"natix/internal/dom"
)

// Op is a sequence-valued logical operator (Fig. 1 of the paper, plus the
// physical-algebra-motivated Tmp^cs and MemoX operators). Operators form a
// tree; dependent sides of d-joins read attributes bound by the left side.
type Op interface {
	fmt.Stringer
	// Children returns the input operators (dependent inputs last).
	Children() []Op
	// Produced returns the attributes this operator itself binds (not
	// those of its inputs).
	Produced() []string
}

// SingletonScan is □: the singleton sequence of the empty tuple.
type SingletonScan struct{}

// UnnestMap is Υ_{Out:In/Axis::Test}: for each input tuple it enumerates
// the nodes reached from the node in attribute In over Axis that satisfy
// Test, binding each to Out (paper section 3.2). Results are in axis order.
type UnnestMap struct {
	In      Op
	InAttr  string
	OutAttr string
	Axis    dom.Axis
	Test    dom.NodeTest
	// EpochAttr, when set, binds an integer that increments each time the
	// operator advances to a new input tuple. Downstream PosMap/TmpCS
	// operators of the stacked translation use it to detect context
	// boundaries exactly, even for duplicate adjacent context nodes
	// (section 4.3.1).
	EpochAttr string
	// Window, when active, restricts the output per input tuple to the
	// matches at the window's proximity positions: the improved
	// translation absorbs a step's first predicate into it when that
	// predicate is [k], [position() < k], [position() <= k], [last()] or
	// [last() - k], so no χ_cp, σ or Tmp^cs is built for it.
	Window dom.Window
}

// VarScan emits one tuple per node of a node-set-valued XPath $ variable,
// binding the node to Attr. Evaluation fails if the variable is unbound or
// not a node-set.
type VarScan struct {
	Name string
	Attr string
}

// Select is σ_Pred.
type Select struct {
	In   Op
	Pred Scalar
}

// Map is χ_{Attr:Expr}: extends each tuple with a computed attribute.
type Map struct {
	In   Op
	Attr string
	Expr Scalar
}

// MemoMap is the χ^mat operator of section 4.3.2: like Map, but the result
// is cached per distinct value of the key attribute (Hellerstein/Naughton
// style memoization of expensive predicate clauses).
type MemoMap struct {
	In      Op
	Attr    string
	Expr    Scalar
	KeyAttr string
}

// PosMap is the position-counting map χ_{cp:counter++} of section 3.3.3.
// With CtxAttr set (stacked translation, section 4.3.1) the counter resets
// whenever the context attribute changes; without it the counter resets on
// every Open (one dependent evaluation = one context).
type PosMap struct {
	In      Op
	Attr    string
	CtxAttr string
}

// TmpCS is Tmp^cs / Tmp^cs_c (sections 3.3.4, 4.3.1, 5.2.4): it
// materializes the tuples of one context, reads the position attribute of
// the final tuple as the context size, and re-emits the tuples extended
// with the size attribute. With CtxAttr set, a context ends when that
// attribute changes; otherwise the whole input is one context.
type TmpCS struct {
	In      Op
	PosAttr string
	OutAttr string
	CtxAttr string
}

// DJoin is the dependent join (<>): for each left tuple, the right side is
// re-evaluated with the left tuple's attribute bindings visible (paper
// section 3.1.1).
type DJoin struct {
	L, R Op
}

// MemoX is 𝔐 (section 4.2.2): a sequence-valued memoization operator used
// on dependent sides. Keyed by the value of KeyAttr at Open time, it caches
// the tuples its input produces and replays them on later evaluations with
// the same key.
type MemoX struct {
	In      Op
	KeyAttr string
}

// DupElim is Π^D restricted to one attribute: it eliminates tuples whose
// Attr value (node identity) was already seen, without projecting away the
// remaining attributes (paper section 3.1.1).
type DupElim struct {
	In   Op
	Attr string
}

// Concat is ⊕ over any number of inputs (used for unions, section 3.1.3).
// All inputs must expose the same node attribute name (use Rename).
type Concat struct {
	Ins []Op
}

// Rename aliases an attribute: Π_{To:From}. The code generator maps both
// names to the same register, emitting no copies (paper section 5.1).
type Rename struct {
	In       Op
	From, To string
}

// Sort sorts the input sequence by document order of the node attribute
// (establishes document order for filter-expression predicates, section
// 3.4.2).
type Sort struct {
	In   Op
	Attr string
}

// Tokenize emits one tuple per whitespace-separated token of the string
// value of Expr, binding the token to Attr (input conversion of id(),
// section 3.6.3).
type Tokenize struct {
	In   Op
	Attr string
	Expr Scalar
}

// Deref is the deref() function of section 3.6.3 in operator form: for
// each input tuple it looks up the element whose ID equals the string value
// of Expr, emitting one tuple with the node bound to Attr on success and
// nothing otherwise.
type Deref struct {
	In   Op
	Attr string
	Expr Scalar
}

// ExistsJoin implements the node-set comparison joins of section 3.6.2
// (semi-join for =, the inequality variant for !=): it emits the left
// tuples for which some right tuple's node compares true on string-values.
// Consumers aggregate it with exists(), which stops at the first tuple.
type ExistsJoin struct {
	L, R         Op
	LAttr, RAttr string
	// Eq selects string-value equality; otherwise inequality.
	Eq bool
}

// Children implementations.

// Children implements Op.
func (*SingletonScan) Children() []Op { return nil }

// Children implements Op.
func (o *UnnestMap) Children() []Op { return []Op{o.In} }

// Children implements Op.
func (o *Select) Children() []Op { return []Op{o.In} }

// Children implements Op.
func (o *Map) Children() []Op { return []Op{o.In} }

// Children implements Op.
func (o *MemoMap) Children() []Op { return []Op{o.In} }

// Children implements Op.
func (o *PosMap) Children() []Op { return []Op{o.In} }

// Children implements Op.
func (o *TmpCS) Children() []Op { return []Op{o.In} }

// Children implements Op.
func (o *DJoin) Children() []Op { return []Op{o.L, o.R} }

// Children implements Op.
func (o *MemoX) Children() []Op { return []Op{o.In} }

// Children implements Op.
func (o *DupElim) Children() []Op { return []Op{o.In} }

// Children implements Op.
func (o *Concat) Children() []Op { return o.Ins }

// Children implements Op.
func (o *Rename) Children() []Op { return []Op{o.In} }

// Children implements Op.
func (o *Sort) Children() []Op { return []Op{o.In} }

// Children implements Op.
func (o *Tokenize) Children() []Op { return []Op{o.In} }

// Children implements Op.
func (o *Deref) Children() []Op { return []Op{o.In} }

// Children implements Op.
func (o *ExistsJoin) Children() []Op { return []Op{o.L, o.R} }

// Produced implementations.

// Produced implements Op.
func (*SingletonScan) Produced() []string { return nil }

// Produced implements Op.
func (o *UnnestMap) Produced() []string {
	if o.EpochAttr != "" {
		return []string{o.OutAttr, o.EpochAttr}
	}
	return []string{o.OutAttr}
}

// Produced implements Op.
func (o *Select) Produced() []string { return nil }

// Produced implements Op.
func (o *Map) Produced() []string { return []string{o.Attr} }

// Produced implements Op.
func (o *MemoMap) Produced() []string { return []string{o.Attr} }

// Produced implements Op.
func (o *PosMap) Produced() []string { return []string{o.Attr} }

// Produced implements Op.
func (o *TmpCS) Produced() []string { return []string{o.OutAttr} }

// Produced implements Op.
func (o *DJoin) Produced() []string { return nil }

// Produced implements Op.
func (o *MemoX) Produced() []string { return nil }

// Produced implements Op.
func (o *DupElim) Produced() []string { return nil }

// Produced implements Op.
func (o *Concat) Produced() []string { return nil }

// Produced implements Op.
func (o *Rename) Produced() []string { return []string{o.To} }

// Produced implements Op.
func (o *Sort) Produced() []string { return nil }

// Produced implements Op.
func (o *Tokenize) Produced() []string { return []string{o.Attr} }

// Produced implements Op.
func (o *Deref) Produced() []string { return []string{o.Attr} }

// Produced implements Op.
func (o *ExistsJoin) Produced() []string { return nil }

// String implementations (one-line operator descriptions; Explain renders
// trees).

// String implements fmt.Stringer.
func (*SingletonScan) String() string { return "□" }

// String implements fmt.Stringer.
func (o *UnnestMap) String() string {
	if o.Window.Active() {
		return fmt.Sprintf("Υ[%s:%s/%s::%s; %s]", o.OutAttr, o.InAttr, o.Axis, o.Test, o.Window)
	}
	return fmt.Sprintf("Υ[%s:%s/%s::%s]", o.OutAttr, o.InAttr, o.Axis, o.Test)
}

// String implements fmt.Stringer.
func (o *Select) String() string { return fmt.Sprintf("σ[%s]", o.Pred) }

// String implements fmt.Stringer.
func (o *Map) String() string { return fmt.Sprintf("χ[%s:%s]", o.Attr, o.Expr) }

// String implements fmt.Stringer.
func (o *MemoMap) String() string {
	return fmt.Sprintf("χmat[%s:%s; key %s]", o.Attr, o.Expr, o.KeyAttr)
}

// String implements fmt.Stringer.
func (o *PosMap) String() string {
	if o.CtxAttr != "" {
		return fmt.Sprintf("χ[%s:counter++ per %s]", o.Attr, o.CtxAttr)
	}
	return fmt.Sprintf("χ[%s:counter++]", o.Attr)
}

// String implements fmt.Stringer.
func (o *TmpCS) String() string {
	if o.CtxAttr != "" {
		return fmt.Sprintf("Tmp^cs[%s from %s; per %s]", o.OutAttr, o.PosAttr, o.CtxAttr)
	}
	return fmt.Sprintf("Tmp^cs[%s from %s]", o.OutAttr, o.PosAttr)
}

// String implements fmt.Stringer.
func (o *DJoin) String() string { return "<d-join>" }

// String implements fmt.Stringer.
func (o *MemoX) String() string { return fmt.Sprintf("𝔐[key %s]", o.KeyAttr) }

// String implements fmt.Stringer.
func (o *DupElim) String() string { return fmt.Sprintf("Π^D[%s]", o.Attr) }

// String implements fmt.Stringer.
func (o *Concat) String() string { return "⊕" }

// String implements fmt.Stringer.
func (o *Rename) String() string { return fmt.Sprintf("Π[%s:%s]", o.To, o.From) }

// String implements fmt.Stringer.
func (o *Sort) String() string { return fmt.Sprintf("Sort[%s]", o.Attr) }

// String implements fmt.Stringer.
func (o *Tokenize) String() string { return fmt.Sprintf("Υ[%s:tokenize(%s)]", o.Attr, o.Expr) }

// String implements fmt.Stringer.
func (o *Deref) String() string { return fmt.Sprintf("χ[%s:deref(%s)]", o.Attr, o.Expr) }

// String implements fmt.Stringer.
func (o *ExistsJoin) String() string {
	op := "⋉"
	if !o.Eq {
		op = "▷"
	}
	return fmt.Sprintf("%s[%s, %s]", op, o.LAttr, o.RAttr)
}

// Explain renders an operator tree, one operator per line, children
// indented.
func Explain(op Op) string {
	var sb strings.Builder
	var walk func(Op, int)
	walk = func(o Op, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(o.String())
		sb.WriteByte('\n')
		for _, c := range o.Children() {
			walk(c, depth+1)
		}
	}
	walk(op, 0)
	return sb.String()
}

// Walk visits every operator of the tree in pre-order, including plans
// nested inside scalar subscripts.
func Walk(op Op, fn func(Op)) {
	fn(op)
	for _, s := range Scalars(op) {
		WalkScalar(s, func(sc Scalar) {
			if agg, ok := sc.(*NestedAgg); ok {
				Walk(agg.Plan, fn)
			}
		})
	}
	for _, c := range op.Children() {
		Walk(c, fn)
	}
}

// Scalars returns the scalar subscripts of one operator.
func Scalars(op Op) []Scalar {
	switch o := op.(type) {
	case *Select:
		return []Scalar{o.Pred}
	case *Map:
		return []Scalar{o.Expr}
	case *MemoMap:
		return []Scalar{o.Expr}
	case *Tokenize:
		return []Scalar{o.Expr}
	case *Deref:
		return []Scalar{o.Expr}
	}
	return nil
}

// WalkScalar visits a scalar expression tree in pre-order (without
// descending into nested plans; use Walk for that).
func WalkScalar(s Scalar, fn func(Scalar)) {
	fn(s)
	switch n := s.(type) {
	case *Root:
		WalkScalar(n.X, fn)
	case *StrValue:
		WalkScalar(n.X, fn)
	case *ArithExpr:
		WalkScalar(n.L, fn)
		WalkScalar(n.R, fn)
	case *NegExpr:
		WalkScalar(n.X, fn)
	case *CompareExpr:
		WalkScalar(n.L, fn)
		WalkScalar(n.R, fn)
	case *LogicExpr:
		for _, t := range n.Terms {
			WalkScalar(t, fn)
		}
	case *FuncExpr:
		for _, a := range n.Args {
			WalkScalar(a, fn)
		}
	case *PredTruth:
		WalkScalar(n.X, fn)
		WalkScalar(n.Pos, fn)
	case *Memo:
		WalkScalar(n.X, fn)
	}
}

// Children implements Op.
func (*VarScan) Children() []Op { return nil }

// Produced implements Op.
func (o *VarScan) Produced() []string { return []string{o.Attr} }

// String implements fmt.Stringer.
func (o *VarScan) String() string { return fmt.Sprintf("Scan[$%s as %s]", o.Name, o.Attr) }
