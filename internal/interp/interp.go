// Package interp implements main-memory XPath 1.0 interpreters over the
// typed IR of package sem. They are the stand-ins for the paper's
// comparators (xsltproc, Xalan; see DESIGN.md substitutions) and double as
// the reference oracle for differential testing of the algebraic engine.
//
// Two behaviours are selectable:
//
//   - DedupSteps true (default, "Xalan-like"): intermediate node lists are
//     sorted into document order and duplicate-eliminated after every
//     location step, keeping evaluation polynomial.
//   - DedupSteps false ("naive"): duplicates survive between steps and
//     multiply, exhibiting the exponential worst case of Gottlob et al.
//     that motivates the paper's section 4.
package interp

import (
	"fmt"

	"natix/internal/dom"
	"natix/internal/sem"
	"natix/internal/xfn"
	"natix/internal/xpath"
	"natix/internal/xval"
)

// Options configure an interpreter.
type Options struct {
	// DedupSteps enables per-step sorting and duplicate elimination.
	DedupSteps bool
}

// Interp is a reusable interpreter. It holds nothing but its options, so
// it is safe for concurrent use on documents that are (id() resolves
// through the document's own map).
type Interp struct {
	opt Options
}

// New returns an interpreter with the given options.
func New(opt Options) *Interp {
	return &Interp{opt: opt}
}

// Context is the dynamic evaluation context: the context node, position and
// size, and variable bindings.
type Context struct {
	Node dom.Node
	Pos  int
	Size int
	Vars map[string]xval.Value
}

// RuntimeError reports a dynamic type or binding error.
type RuntimeError struct {
	Msg string
}

// Error implements error.
func (e *RuntimeError) Error() string { return "xpath eval: " + e.Msg }

func rerrf(format string, args ...any) error {
	return &RuntimeError{Msg: fmt.Sprintf(format, args...)}
}

// Eval evaluates a normalized expression in the given context.
func (ip *Interp) Eval(e sem.Expr, ctx *Context) (xval.Value, error) {
	switch n := e.(type) {
	case *sem.Literal:
		return n.Val, nil
	case *sem.VarRef:
		v, ok := ctx.Vars[n.Name]
		if !ok {
			return xval.Value{}, rerrf("unbound variable $%s", n.Name)
		}
		return v, nil
	case *sem.Neg:
		v, err := ip.Eval(n.X, ctx)
		if err != nil {
			return xval.Value{}, err
		}
		return xval.Num(-v.Number()), nil
	case *sem.Arith:
		l, err := ip.Eval(n.Left, ctx)
		if err != nil {
			return xval.Value{}, err
		}
		r, err := ip.Eval(n.Right, ctx)
		if err != nil {
			return xval.Value{}, err
		}
		return xval.Num(n.Op.Apply(l.Number(), r.Number())), nil
	case *sem.Compare:
		l, err := ip.Eval(n.Left, ctx)
		if err != nil {
			return xval.Value{}, err
		}
		r, err := ip.Eval(n.Right, ctx)
		if err != nil {
			return xval.Value{}, err
		}
		return xval.Bool(xval.Compare(n.Op, l, r)), nil
	case *sem.Logic:
		for _, t := range n.Terms {
			v, err := ip.Eval(t, ctx)
			if err != nil {
				return xval.Value{}, err
			}
			if v.Boolean() == n.Or {
				return xval.Bool(n.Or), nil
			}
		}
		return xval.Bool(!n.Or), nil
	case *sem.Union:
		var nodes []dom.Node
		for _, t := range n.Terms {
			v, err := ip.Eval(t, ctx)
			if err != nil {
				return xval.Value{}, err
			}
			if !v.IsNodeSet() {
				return xval.Value{}, rerrf("union operand is %s, not a node-set", v.Kind)
			}
			nodes = append(nodes, v.Nodes...)
		}
		return xval.NodeSet(xfn.SortDedup(nodes)), nil
	case *sem.Path:
		nodes, err := ip.evalPath(n, ctx)
		if err != nil {
			return xval.Value{}, err
		}
		return xval.NodeSet(nodes), nil
	case *sem.Call:
		return ip.call(n, ctx)
	}
	return xval.Value{}, rerrf("unsupported expression %T", e)
}

func (ip *Interp) evalPath(p *sem.Path, ctx *Context) ([]dom.Node, error) {
	var cur []dom.Node
	switch {
	case p.Base != nil:
		v, err := ip.Eval(p.Base, ctx)
		if err != nil {
			return nil, err
		}
		if !v.IsNodeSet() {
			return nil, rerrf("path applied to %s value", v.Kind)
		}
		cur = append(cur, v.Nodes...)
	case p.Absolute:
		cur = []dom.Node{ctx.Node.Root()}
	default:
		cur = []dom.Node{ctx.Node}
	}
	if len(p.FilterPreds) > 0 {
		// Filter expression predicates count positions in document order
		// (paper section 3.4.2).
		cur = xfn.SortDedup(cur)
		for _, pred := range p.FilterPreds {
			var err error
			cur, err = ip.filterList(cur, pred, ctx)
			if err != nil {
				return nil, err
			}
		}
	}
	for _, step := range p.Steps {
		next, err := ip.evalStep(cur, step, ctx)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	if !ip.opt.DedupSteps {
		cur = xfn.SortDedup(cur)
	}
	return cur, nil
}

func (ip *Interp) evalStep(cur []dom.Node, step *sem.Step, ctx *Context) ([]dom.Node, error) {
	var next []dom.Node
	stepper := dom.NewStepper(step.Axis)
	principal := step.Axis.Principal()
	scratch := make([]dom.Node, 0, 16)
	for _, cn := range cur {
		scratch = scratch[:0]
		stepper.Reset(cn.Doc, cn.ID)
		for {
			id, ok := stepper.Next()
			if !ok {
				break
			}
			if step.Test.Matches(cn.Doc, id, principal) {
				scratch = append(scratch, dom.Node{Doc: cn.Doc, ID: id})
			}
		}
		nodes := scratch
		for _, pred := range step.Preds {
			var err error
			nodes, err = ip.filterList(nodes, pred, ctx)
			if err != nil {
				return nil, err
			}
		}
		next = append(next, nodes...)
	}
	if ip.opt.DedupSteps {
		next = xfn.SortDedup(next)
	}
	return next, nil
}

// filterList applies one predicate to a node list, with context positions
// counted in the list's order and context size equal to its length.
func (ip *Interp) filterList(nodes []dom.Node, pred *sem.Predicate, outer *Context) ([]dom.Node, error) {
	if len(nodes) == 0 {
		return nil, nil
	}
	out := nodes[:0:len(nodes)]
	inner := &Context{Size: len(nodes), Vars: outer.Vars}
	for i, n := range nodes {
		inner.Node, inner.Pos = n, i+1
		keep := true
		for _, cl := range pred.Clauses {
			v, err := ip.Eval(cl.Expr, inner)
			if err != nil {
				return nil, err
			}
			if !v.Boolean() {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, n)
		}
	}
	return out, nil
}

func (ip *Interp) call(c *sem.Call, ctx *Context) (xval.Value, error) {
	switch c.Fn.ID {
	case sem.FnPosition:
		return xval.Num(float64(ctx.Pos)), nil
	case sem.FnLast:
		return xval.Num(float64(ctx.Size)), nil
	}
	args := make([]xval.Value, len(c.Args))
	for i, a := range c.Args {
		v, err := ip.Eval(a, ctx)
		if err != nil {
			return xval.Value{}, err
		}
		args[i] = v
	}
	switch c.Fn.ID {
	case sem.FnCount:
		if !args[0].IsNodeSet() {
			return xval.Value{}, rerrf("count() over %s", args[0].Kind)
		}
		return xval.Num(xfn.Count(args[0].Nodes)), nil
	case sem.FnSum:
		if !args[0].IsNodeSet() {
			return xval.Value{}, rerrf("sum() over %s", args[0].Kind)
		}
		return xval.Num(xfn.Sum(args[0].Nodes)), nil
	case sem.FnID:
		return xval.NodeSet(xfn.ID(ctx.Node.Doc, args[0])), nil
	case sem.FnLocalName:
		return xval.Str(xfn.LocalName(args[0].Nodes)), nil
	case sem.FnNamespaceURI:
		return xval.Str(xfn.NamespaceURI(args[0].Nodes)), nil
	case sem.FnName:
		return xval.Str(xfn.Name(args[0].Nodes)), nil
	case sem.FnLang:
		return xval.Bool(xfn.Lang(ctx.Node, args[0].S)), nil
	}
	if v, ok := sem.EvalSimpleString(c.Fn.ID, args); ok {
		return v, nil
	}
	return xval.Value{}, rerrf("unsupported function %s()", c.Fn.Name)
}

// Query is a compiled expression bound to an interpreter.
type Query struct {
	Root sem.Expr
	ip   *Interp
}

// Compile parses and analyzes an expression for interpretation.
func Compile(expr string, env *sem.Env, opt Options) (*Query, error) {
	ast, err := xpath.Parse(expr)
	if err != nil {
		return nil, err
	}
	root, err := sem.Analyze(ast, env)
	if err != nil {
		return nil, err
	}
	return &Query{Root: root, ip: New(opt)}, nil
}

// Eval evaluates the query with the given context node and variables. The
// top-level context has position 1 of 1.
func (q *Query) Eval(ctxNode dom.Node, vars map[string]xval.Value) (xval.Value, error) {
	return q.ip.Eval(q.Root, &Context{Node: ctxNode, Pos: 1, Size: 1, Vars: vars})
}
