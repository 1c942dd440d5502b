// Package xpath implements the XPath 1.0 front-end: a lexer and a
// recursive-descent parser for the complete W3C grammar (including the
// abbreviated syntax), producing the abstract syntax tree consumed by the
// semantic analysis in package sem.
package xpath

import (
	"fmt"
	"strings"

	"natix/internal/dom"
	"natix/internal/xval"
)

// Expr is an XPath expression node.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// BinOp is a binary operator of the expression grammar.
type BinOp uint8

// Binary operators.
const (
	OpOr BinOp = iota
	OpAnd
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
)

var binOpNames = [...]string{
	OpOr: "or", OpAnd: "and",
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "div", OpMod: "mod",
}

// String returns the XPath spelling of the operator.
func (op BinOp) String() string { return binOpNames[op] }

// CompareOp maps a comparison BinOp to the shared xval operator; the error
// case is a non-comparison operator.
func (op BinOp) CompareOp() (xval.CompareOp, error) {
	switch op {
	case OpEq:
		return xval.OpEq, nil
	case OpNe:
		return xval.OpNe, nil
	case OpLt:
		return xval.OpLt, nil
	case OpLe:
		return xval.OpLe, nil
	case OpGt:
		return xval.OpGt, nil
	case OpGe:
		return xval.OpGe, nil
	}
	return 0, fmt.Errorf("xpath: %v is not a comparison", op)
}

// Binary is a binary expression (or, and, comparisons, arithmetic).
type Binary struct {
	Op          BinOp
	Left, Right Expr
}

// Neg is the unary minus.
type Neg struct {
	X Expr
}

// Union is e1 | e2 | ... | en, flattened.
type Union struct {
	Terms []Expr
}

// NodeTest is the syntactic node test of a step; the prefix is unresolved
// until semantic analysis.
type NodeTest struct {
	Kind          dom.TestKind
	Prefix, Local string // TestName, TestNSName (Prefix only)
	Target        string // TestPI
}

// Step is one location step: axis, node test and predicates. The
// abbreviated forms have been expanded by the parser ("//" into
// descendant-or-self::node(), "." into self::node(), ".." into
// parent::node(), "@" into the attribute axis).
type Step struct {
	Axis  dom.Axis
	Test  NodeTest
	Preds []Expr
}

// LocationPath is an absolute or relative location path.
type LocationPath struct {
	Absolute bool
	Steps    []*Step
}

// Filter is a primary expression filtered by predicates:
// PrimaryExpr Predicate*.
type Filter struct {
	Primary Expr
	Preds   []Expr
}

// Path is a general path expression: FilterExpr '/' RelativeLocationPath
// (paper section 3.5). Base is the node-set-valued expression, Rel the
// relative path applied to each of its nodes.
type Path struct {
	Base Expr
	Rel  *LocationPath
}

// VarRef is an XPath $ variable reference.
type VarRef struct {
	Name string
}

// Literal is a string literal.
type Literal struct {
	Value string
}

// Number is a numeric literal.
type Number struct {
	Value float64
}

// FuncCall is a function call; Name is the (possibly prefixed) function
// name as written.
type FuncCall struct {
	Name string
	Args []Expr
}

func (*Binary) exprNode()       {}
func (*Neg) exprNode()          {}
func (*Union) exprNode()        {}
func (*LocationPath) exprNode() {}
func (*Filter) exprNode()       {}
func (*Path) exprNode()         {}
func (*VarRef) exprNode()       {}
func (*Literal) exprNode()      {}
func (*Number) exprNode()       {}
func (*FuncCall) exprNode()     {}

// String renders the expression in (unabbreviated) XPath syntax.
func (e *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", enclosed(e.Left), e.Op, e.Right)
}

// enclosed renders an expression that something follows: a bare root path
// goes in parentheses, or what follows would read as its step ("/ * 0" is
// "/child::*" then 0, "/" then "/a" is "//a").
func enclosed(e Expr) string {
	if lp, ok := e.(*LocationPath); ok && lp.Absolute && len(lp.Steps) == 0 {
		return "(/)"
	}
	return e.String()
}

// term renders an operand of "/" or "|". Both bind tighter than unary
// minus, so a negation goes in parentheses too: "-(0)/a" is "-(0/a)".
func term(e Expr) string {
	if _, ok := e.(*Neg); ok {
		return "(" + e.String() + ")"
	}
	return enclosed(e)
}

func (e *Neg) String() string { return fmt.Sprintf("-(%s)", e.X) }

func (e *Union) String() string {
	parts := make([]string, len(e.Terms))
	for i, t := range e.Terms {
		parts[i] = term(t)
	}
	return "(" + strings.Join(parts, " | ") + ")"
}

func (t NodeTest) String() string {
	switch t.Kind {
	case dom.TestAnyNode:
		return "node()"
	case dom.TestText:
		return "text()"
	case dom.TestComment:
		return "comment()"
	case dom.TestPI:
		if t.Target != "" {
			return "processing-instruction(" + quote(t.Target) + ")"
		}
		return "processing-instruction()"
	case dom.TestAnyName:
		return "*"
	case dom.TestNSName:
		return t.Prefix + ":*"
	default:
		if t.Prefix != "" {
			return t.Prefix + ":" + t.Local
		}
		return t.Local
	}
}

func (s *Step) String() string {
	var sb strings.Builder
	sb.WriteString(s.Axis.String())
	sb.WriteString("::")
	sb.WriteString(s.Test.String())
	for _, p := range s.Preds {
		sb.WriteByte('[')
		sb.WriteString(p.String())
		sb.WriteByte(']')
	}
	return sb.String()
}

func (e *LocationPath) String() string {
	var sb strings.Builder
	if e.Absolute {
		sb.WriteByte('/')
	}
	for i, s := range e.Steps {
		if i > 0 {
			sb.WriteByte('/')
		}
		sb.WriteString(s.String())
	}
	return sb.String()
}

func (e *Filter) String() string {
	var sb strings.Builder
	switch e.Primary.(type) {
	case *LocationPath, *Path, *Neg:
		// Unparenthesized, the predicates would bind to the last step or
		// to the negated operand.
		sb.WriteByte('(')
		sb.WriteString(e.Primary.String())
		sb.WriteByte(')')
	default:
		sb.WriteString(e.Primary.String())
	}
	for _, p := range e.Preds {
		sb.WriteByte('[')
		sb.WriteString(p.String())
		sb.WriteByte(']')
	}
	return sb.String()
}

func (e *Path) String() string {
	return term(e.Base) + "/" + e.Rel.String()
}

func (e *VarRef) String() string { return "$" + e.Name }

func (e *Literal) String() string { return quote(e.Value) }

// quote renders a literal: in apostrophes unless the value holds one, in
// double quotes then. A parsed literal never holds both.
func quote(v string) string {
	if strings.Contains(v, "'") {
		return `"` + v + `"`
	}
	return "'" + v + "'"
}

func (e *Number) String() string { return xval.FormatNumber(e.Value) }

func (e *FuncCall) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ", ") + ")"
}

// Walk calls fn for every node of the expression tree in pre-order,
// including predicate expressions. fn returning false prunes the subtree.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch n := e.(type) {
	case *Binary:
		Walk(n.Left, fn)
		Walk(n.Right, fn)
	case *Neg:
		Walk(n.X, fn)
	case *Union:
		for _, t := range n.Terms {
			Walk(t, fn)
		}
	case *LocationPath:
		for _, s := range n.Steps {
			for _, p := range s.Preds {
				Walk(p, fn)
			}
		}
	case *Filter:
		Walk(n.Primary, fn)
		for _, p := range n.Preds {
			Walk(p, fn)
		}
	case *Path:
		Walk(n.Base, fn)
		Walk(n.Rel, fn)
	case *FuncCall:
		for _, a := range n.Args {
			Walk(a, fn)
		}
	}
}
