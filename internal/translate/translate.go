// Package translate implements the paper's translation function T[·] from
// normalized XPath expressions (package sem) into the logical algebra
// (package algebra): the canonical translation of section 3 and the
// improved translation of section 4 (pushed duplicate elimination, stacked
// outer paths, MemoX memoization of inner paths, Tmp^cs_c with exact
// context-boundary detection, and cheap-before-expensive predicate
// evaluation with materializing χ^mat maps).
package translate

import (
	"fmt"
	"strconv"

	"natix/internal/algebra"
	"natix/internal/dom"
	"natix/internal/sem"
)

// Options select between the canonical translation and the improvements of
// section 4, individually toggleable for the ablation benchmarks.
type Options struct {
	// Stacked translates outer location paths as a single pipeline
	// (section 4.2.1) instead of a chain of d-joins.
	Stacked bool
	// PushDupElim inserts duplicate eliminations after ppd steps
	// (section 4.1).
	PushDupElim bool
	// MemoX memoizes dependent step evaluations of inner paths fed by ppd
	// steps (section 4.2.2).
	MemoX bool
	// PredReorder evaluates cheap predicate clauses before expensive ones
	// and materializes expensive clause results per context node
	// (section 4.3.2).
	PredReorder bool
	// SeqProps enables the sequence-level order/duplicate analysis the
	// paper defers to future work ([13], sections 4.1 and 3.4.2): static
	// properties (max-one, ordered, duplicate-free, non-nested) tracked
	// through step composition replace the per-axis ppd rule for placing
	// duplicate eliminations, and provably ordered inputs skip the
	// document-order sort of filter expressions.
	SeqProps bool
}

// Canonical returns the options of the canonical translation (section 3).
func Canonical() Options { return Options{} }

// Improved returns the options of the fully improved translation
// (section 4).
func Improved() Options {
	return Options{Stacked: true, PushDupElim: true, MemoX: true, PredReorder: true}
}

// TopContextAttr is the attribute under which the execution context binds
// the initial context node (the free variable cn of the paper).
const TopContextAttr = "cn"

// Result is a translated query: either a sequence-valued plan whose node
// attribute is Attr, or a scalar expression.
type Result struct {
	Plan   algebra.Op
	Attr   string
	Scalar algebra.Scalar
}

// IsSequence reports whether the query produces a node-set.
func (r *Result) IsSequence() bool { return r.Plan != nil }

// Translate translates a normalized expression.
func Translate(e sem.Expr, opt Options) (*Result, error) {
	tr := &translator{opt: opt}
	if e.Type() == sem.TNodeSet {
		s, err := tr.seq(e, scope{ctxAttr: TopContextAttr})
		if err != nil {
			return nil, err
		}
		return &Result{Plan: s.op, Attr: s.attr}, nil
	}
	sc, err := tr.scalar(e, scope{ctxAttr: TopContextAttr})
	if err != nil {
		return nil, err
	}
	return &Result{Scalar: sc}, nil
}

// translator carries the options and the attribute name generator.
type translator struct {
	opt  Options
	next int
}

func (tr *translator) attr(prefix string) string {
	tr.next++
	return prefix + strconv.Itoa(tr.next)
}

// scope is the static context of a (sub)translation: the attribute holding
// the current context node, and the position/size attributes of the
// innermost predicate.
type scope struct {
	ctxAttr  string
	posAttr  string
	sizeAttr string
	// inner marks translation inside a predicate (section 4.2.2: inner
	// paths use d-joins with memoization instead of stacking).
	inner bool
}

// seq is a sequence-valued partial plan: the operator tree, the name of
// its node attribute, and the statically derived sequence properties used
// to decide on duplicate eliminations and sorts.
type seq struct {
	op   algebra.Op
	attr string
	pr   props
}

// ppd reports whether a step potentially produces duplicates (section 4.1).
// The namespace axis is added to the paper's list because this engine
// yields shared declaration records for it (see DESIGN.md).
func ppd(axis dom.Axis) bool { return axis.PPD() || axis == dom.AxisNamespace }

func (tr *translator) seq(e sem.Expr, sc scope) (seq, error) {
	switch n := e.(type) {
	case *sem.Path:
		return tr.path(n, sc)
	case *sem.Union:
		return tr.union(n, sc)
	case *sem.Call:
		if n.Fn.ID == sem.FnID {
			return tr.idCall(n, sc)
		}
		return seq{}, fmt.Errorf("translate: function %s() is not sequence-valued", n.Fn.Name)
	case *sem.VarRef:
		out := tr.attr("c")
		return seq{op: &algebra.VarScan{Name: n.Name, Attr: out}, attr: out, pr: unknownProps()}, nil
	}
	return seq{}, fmt.Errorf("translate: %T is not sequence-valued", e)
}

// path translates the unified Path node: location paths, filter
// expressions, and general path expressions (sections 3.1, 3.4, 3.5).
func (tr *translator) path(p *sem.Path, sc scope) (seq, error) {
	cur, err := tr.pathBase(p, sc)
	if err != nil {
		return seq{}, err
	}
	if len(p.FilterPreds) > 0 {
		cur, err = tr.filterPreds(cur, p.FilterPreds, sc)
		if err != nil {
			return seq{}, err
		}
	}
	for i, step := range p.Steps {
		prevPPD := i > 0 && ppd(p.Steps[i-1].Axis)
		cur, err = tr.step(cur, step, sc, prevPPD)
		if err != nil {
			return seq{}, err
		}
	}
	if !cur.pr.dupFree {
		cur.op = &algebra.DupElim{In: cur.op, Attr: cur.attr}
		cur.pr = cur.pr.afterDupElim()
	}
	return cur, nil
}

// pathBase produces the initial context sequence of a path.
func (tr *translator) pathBase(p *sem.Path, sc scope) (seq, error) {
	switch {
	case p.Base != nil:
		return tr.seq(p.Base, sc)
	case p.Absolute:
		out := tr.attr("c")
		op := &algebra.Map{
			In:   &algebra.SingletonScan{},
			Attr: out,
			Expr: &algebra.Root{X: &algebra.AttrRef{Name: sc.ctxAttr}},
		}
		return seq{op: op, attr: out, pr: seedProps()}, nil
	default:
		out := tr.attr("c")
		op := &algebra.Map{
			In:   &algebra.SingletonScan{},
			Attr: out,
			Expr: &algebra.AttrRef{Name: sc.ctxAttr},
		}
		return seq{op: op, attr: out, pr: seedProps()}, nil
	}
}

// step translates one location step applied to the current sequence.
// prevPPD reports whether the feeding step was ppd, which controls MemoX
// for inner paths (section 4.2.2).
func (tr *translator) step(cur seq, step *sem.Step, sc scope, prevPPD bool) (seq, error) {
	out := tr.attr("c")
	stepPPD := ppd(step.Axis)

	// Predicates need position counting per context; in the stacked
	// translation context boundaries are detected with an epoch attribute
	// bound by the unnest-map (section 4.3.1).
	needPos := false
	for _, pr := range step.Preds {
		if pr.UsesPosition || pr.UsesLast {
			needPos = true
		}
	}

	// Derive the output sequence properties: the deferred-work analysis
	// composes step transitions; otherwise only the per-axis ppd rule of
	// section 4.1 tracks duplicate-freeness.
	var outPr props
	if tr.opt.SeqProps {
		outPr = cur.pr.step(step.Axis)
	} else {
		outPr = props{dupFree: cur.pr.dupFree && !stepPPD}
	}

	stacked := tr.opt.Stacked && !sc.inner
	if stacked {
		um := &algebra.UnnestMap{In: cur.op, InAttr: cur.attr, OutAttr: out, Axis: step.Axis, Test: step.Test}
		if needPos {
			um.EpochAttr = tr.attr("e")
		}
		op, err := tr.preds(algebra.Op(um), step.Preds, scope{
			ctxAttr: out, inner: true,
		}, um.EpochAttr)
		if err != nil {
			return seq{}, err
		}
		res := seq{op: op, attr: out, pr: outPr}
		if !outPr.dupFree && tr.opt.PushDupElim {
			res.op = &algebra.DupElim{In: res.op, Attr: out}
			res.pr = res.pr.afterDupElim()
		}
		return res, nil
	}

	// Canonical d-join form: the dependent side enumerates the step from
	// the context node bound by the left side (section 3.1.1). Each
	// dependent evaluation is one context, so position counting resets on
	// Open (empty epoch attribute).
	dep := algebra.Op(&algebra.UnnestMap{
		In: &algebra.SingletonScan{}, InAttr: cur.attr, OutAttr: out,
		Axis: step.Axis, Test: step.Test,
	})
	dep, err := tr.preds(dep, step.Preds, scope{ctxAttr: out, inner: true}, "")
	if err != nil {
		return seq{}, err
	}
	if tr.opt.MemoX && sc.inner && prevPPD {
		dep = &algebra.MemoX{In: dep, KeyAttr: cur.attr}
	}
	res := seq{op: &algebra.DJoin{L: cur.op, R: dep}, attr: out, pr: outPr}
	if !outPr.dupFree && tr.opt.PushDupElim {
		res.op = &algebra.DupElim{In: res.op, Attr: out}
		res.pr = res.pr.afterDupElim()
	}
	return res, nil
}

// filterPreds applies the predicates of a filter expression (section 3.4):
// with position-based predicates the input is first sorted into document
// order; each predicate treats the whole sequence as one context.
func (tr *translator) filterPreds(cur seq, preds []*sem.Predicate, sc scope) (seq, error) {
	positional := false
	for _, p := range preds {
		if p.UsesPosition || p.UsesLast {
			positional = true
		}
	}
	op := cur.op
	if positional {
		if !cur.pr.dupFree {
			// Positions count distinct nodes; eliminate duplicates before
			// sorting so each node occupies one position.
			op = &algebra.DupElim{In: op, Attr: cur.attr}
			cur.pr = cur.pr.afterDupElim()
		}
		if !(tr.opt.SeqProps && cur.pr.ordered) {
			// The deferred-work analysis skips the sort when the input is
			// provably in document order already (section 3.4.2, [13]).
			op = &algebra.Sort{In: op, Attr: cur.attr}
			cur.pr = cur.pr.afterSort()
		}
	}
	op, err := tr.preds(op, preds, scope{ctxAttr: cur.attr, inner: true}, "")
	if err != nil {
		return seq{}, err
	}
	return seq{op: op, attr: cur.attr, pr: cur.pr}, nil
}

// preds builds the predicate pipeline Φ[p_h] ∘ ... ∘ Φ[p_1] (sections 3.3,
// 4.3). epochAttr selects stacked context-boundary detection ("" = one
// context per Open).
func (tr *translator) preds(in algebra.Op, preds []*sem.Predicate, sc scope, epochAttr string) (algebra.Op, error) {
	op := in
	for _, pred := range preds {
		var err error
		op, err = tr.pred(op, pred, sc, epochAttr)
		if err != nil {
			return nil, err
		}
	}
	return op, nil
}

func (tr *translator) pred(in algebra.Op, pred *sem.Predicate, sc scope, epochAttr string) (algebra.Op, error) {
	psc := sc
	op := in
	if pred.UsesPosition || pred.UsesLast {
		psc.posAttr = tr.attr("cp")
		op = &algebra.PosMap{In: op, Attr: psc.posAttr, CtxAttr: epochAttr}
	}
	if pred.UsesLast {
		psc.sizeAttr = tr.attr("cs")
	}

	clauses := pred.Clauses
	if !tr.opt.PredReorder {
		// Canonical order (section 3.3): Tmp^cs first if needed, then the
		// selections in source order.
		if pred.UsesLast {
			op = &algebra.TmpCS{In: op, PosAttr: psc.posAttr, OutAttr: psc.sizeAttr, CtxAttr: epochAttr}
		}
		for _, cl := range clauses {
			s, err := tr.scalar(cl.Expr, psc)
			if err != nil {
				return nil, err
			}
			op = &algebra.Select{In: op, Pred: s}
		}
		return op, nil
	}

	// Improved order (section 4.3.2):
	//   σ_exp^mat ∘ σ_cheap∩last ∘ Tmp^cs ∘ σ_cheap\last ∘ χ_cp.
	var cheapNoLast, cheapLast, exp []*sem.Clause
	for _, cl := range clauses {
		switch {
		case cl.Expensive:
			exp = append(exp, cl)
		case cl.UsesLast:
			cheapLast = append(cheapLast, cl)
		default:
			cheapNoLast = append(cheapNoLast, cl)
		}
	}
	sortByCost(cheapNoLast)
	sortByCost(cheapLast)
	sortByCost(exp)

	for _, cl := range cheapNoLast {
		s, err := tr.scalar(cl.Expr, psc)
		if err != nil {
			return nil, err
		}
		op = &algebra.Select{In: op, Pred: s}
	}
	if pred.UsesLast {
		op = &algebra.TmpCS{In: op, PosAttr: psc.posAttr, OutAttr: psc.sizeAttr, CtxAttr: epochAttr}
	}
	for _, cl := range cheapLast {
		s, err := tr.scalar(cl.Expr, psc)
		if err != nil {
			return nil, err
		}
		op = &algebra.Select{In: op, Pred: s}
	}
	for _, cl := range exp {
		s, err := tr.scalar(cl.Expr, psc)
		if err != nil {
			return nil, err
		}
		if cl.UsesPosition || cl.UsesLast {
			// Positional clauses cannot be cached per context node: the
			// same node can recur at different positions.
			op = &algebra.Select{In: op, Pred: s}
			continue
		}
		v := tr.attr("v")
		op = &algebra.MemoMap{In: op, Attr: v, Expr: s, KeyAttr: psc.ctxAttr}
		op = &algebra.Select{In: op, Pred: &algebra.AttrRef{Name: v}}
	}
	return op, nil
}

func sortByCost(cls []*sem.Clause) {
	for i := 1; i < len(cls); i++ {
		for j := i; j > 0 && cls[j-1].Cost > cls[j].Cost; j-- {
			cls[j-1], cls[j] = cls[j], cls[j-1]
		}
	}
}

// union translates e1 | ... | en (section 3.1.3): concatenation with the
// terms renamed to a common attribute, followed by duplicate elimination.
func (tr *translator) union(u *sem.Union, sc scope) (seq, error) {
	out := tr.attr("c")
	cc := &algebra.Concat{}
	for _, term := range u.Terms {
		s, err := tr.seq(term, sc)
		if err != nil {
			return seq{}, err
		}
		cc.Ins = append(cc.Ins, &algebra.Rename{In: s.op, From: s.attr, To: out})
	}
	return seq{
		op:   &algebra.DupElim{In: cc, Attr: out},
		attr: out,
		pr:   props{dupFree: true},
	}, nil
}

// idCall translates id() (section 3.6.3): tokenize the input into ID
// strings, dereference each, eliminate duplicates.
func (tr *translator) idCall(c *sem.Call, sc scope) (seq, error) {
	arg := c.Args[0]
	tok := tr.attr("t")
	out := tr.attr("c")
	var tokenized algebra.Op
	if arg.Type() == sem.TNodeSet {
		in, err := tr.seq(arg, sc)
		if err != nil {
			return seq{}, err
		}
		tokenized = &algebra.Tokenize{
			In:   in.op,
			Attr: tok,
			Expr: &algebra.StrValue{X: &algebra.AttrRef{Name: in.attr}},
		}
	} else {
		s, err := tr.scalar(arg, sc)
		if err != nil {
			return seq{}, err
		}
		tokenized = &algebra.Tokenize{
			In:   &algebra.SingletonScan{},
			Attr: tok,
			Expr: s,
		}
	}
	deref := &algebra.Deref{In: tokenized, Attr: out, Expr: &algebra.AttrRef{Name: tok}}
	return seq{
		op:   &algebra.DupElim{In: deref, Attr: out},
		attr: out,
		pr:   props{dupFree: true},
	}, nil
}
