// Access-path selection for the structural path index (internal/pathindex).
//
// The pass runs in two stages, mirroring the batchability analysis:
//
//  1. MarkPathIndex (compile time, optional — natix.Options.EnablePathIndex)
//     finds candidate chains in the logical plan: a run of UnnestMaps over
//     downward axes with element name tests, interleaved with DupElims,
//     renames and pure attribute maps, grounded at χ[c:root(cn)] over the
//     singleton — the shape every root-anchored path produces. Each
//     candidate records the steps, the output register and the batch
//     marking of its top operator.
//
//  2. At instantiation (the compile() wrapper), the candidate is priced
//     against the execution's document: the path summary either answers the
//     chain exactly (order-exact substitution, see pathindex/match.go) or
//     refuses it, and a cost comparison of the exact match cardinality
//     versus the estimated walk enumeration decides between a
//     PathIndexScan and the untouched navigation builder. Documents
//     without an index, refused matches and lost cost comparisons all fall
//     back — the scalar and batched protocols are unaffected.
package codegen

import (
	"natix/internal/algebra"
	"natix/internal/dom"
	"natix/internal/pathindex"
	"natix/internal/physical"
)

// pathCand is one candidate chain, keyed by its top operator in
// Plan.pathCand. key is the chain's pathindex.ChainKey, under which every
// run finds the index's memoized match; pattern is its display form only.
type pathCand struct {
	steps   []pathindex.Step
	key     string
	pattern string
	outReg  int
	batch   bool
}

// MarkPathIndex runs the access-path candidate analysis. Call it after
// Compile and before the first Run; it is a no-op on scalar plans.
func (p *Plan) MarkPathIndex() {
	if p.source == nil || !p.source.IsSequence() {
		return
	}
	p.markPathOp(p.source.Plan)
}

// markPathOp walks the operator tree (and every nested aggregate subplan)
// trying to root a candidate at each operator; on a match the chain below
// is consumed, otherwise the walk descends.
func (p *Plan) markPathOp(op algebra.Op) {
	switch op.(type) {
	case *algebra.UnnestMap, *algebra.DupElim:
		if c := p.matchChain(op); c != nil {
			p.pathCand[op] = c
			return
		}
	}
	for _, sc := range algebra.Scalars(op) {
		algebra.WalkScalar(sc, func(s algebra.Scalar) {
			if agg, ok := s.(*algebra.NestedAgg); ok {
				p.markPathOp(agg.Plan)
			}
		})
	}
	for _, c := range op.Children() {
		p.markPathOp(c)
	}
}

// matchChain recognizes a candidate chain topped at op and returns its
// record, or nil. The shape, top to bottom: {UnnestMap | DupElim | Rename |
// alias-Map}* over χ[c:root(ctx)] over □, where every UnnestMap uses a
// child/descendant/descendant-or-self axis with an element name test, no
// epoch attribute and no positional window, the register plumbing is
// contiguous, and the root() argument resolves to the top context register
// (so the scan's document is provably the execution's context document).
// Interior registers must be dead outside the chain — the scan writes only
// the output register.
func (p *Plan) matchChain(op algebra.Op) *pathCand {
	var steps []pathindex.Step
	chain := map[algebra.Op]bool{}
	interior := map[int]bool{}
	outReg := -1
	expect := -1 // register the next-lower operator must produce; -1 = any
	cur := op
	for {
		chain[cur] = true
		switch o := cur.(type) {
		case *algebra.UnnestMap:
			// A path-index scan answers the chain's node set, which knows
			// no per-context positions: a windowed step ends the match.
			if o.EpochAttr != "" || o.Window.Active() || !pathAxisOK(o.Axis) || !pathTestOK(o.Test) {
				return nil
			}
			r, ok := p.reg(o.OutAttr)
			if !ok || (expect != -1 && r != expect) {
				return nil
			}
			if outReg == -1 {
				outReg = r
			} else {
				interior[r] = true
			}
			steps = append(steps, pathindex.Step{Axis: o.Axis, Test: o.Test})
			if expect, ok = p.reg(o.InAttr); !ok {
				return nil
			}
			cur = o.In
		case *algebra.DupElim:
			r, ok := p.reg(o.Attr)
			if !ok || (expect != -1 && r != expect) {
				return nil
			}
			if outReg == -1 {
				outReg = r
			}
			expect = r
			cur = o.In
		case *algebra.Rename:
			cur = o.In
		case *algebra.Map:
			if _, ok := o.Expr.(*algebra.AttrRef); ok {
				cur = o.In // register alias, no iterator
				continue
			}
			root, ok := o.Expr.(*algebra.Root)
			if !ok {
				return nil
			}
			ref, ok := root.X.(*algebra.AttrRef)
			if !ok {
				return nil
			}
			if r, ok := p.reg(ref.Name); !ok || r != p.ctxReg {
				return nil
			}
			if r, ok := p.reg(o.Attr); !ok || (expect != -1 && r != expect) {
				return nil
			} else if r != outReg {
				interior[r] = true
			}
			if _, ok := o.In.(*algebra.SingletonScan); !ok {
				return nil
			}
			chain[o.In] = true
			if len(steps) == 0 || outReg == -1 {
				return nil
			}
			// Reverse to execution (root-outward) order.
			for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
				steps[i], steps[j] = steps[j], steps[i]
			}
			delete(interior, outReg)
			if len(interior) > 0 && p.readsOutside(chain, interior) {
				return nil
			}
			_, batch := p.batchCol[op]
			return &pathCand{
				steps:   steps,
				key:     pathindex.ChainKey(steps),
				pattern: pathindex.FormatSteps(steps),
				outReg:  outReg,
				batch:   batch,
			}
		default:
			return nil
		}
	}
}

// reg resolves an attribute already allocated during compilation; a missing
// attribute fails the candidate (never allocate post-compile).
func (p *Plan) reg(attr string) (int, bool) {
	r, ok := p.regs[attr]
	return r, ok
}

func pathAxisOK(a dom.Axis) bool {
	switch a {
	case dom.AxisChild, dom.AxisDescendant, dom.AxisDescendantOrSelf:
		return true
	}
	return false
}

func pathTestOK(t dom.NodeTest) bool {
	switch t.Kind {
	case dom.TestName, dom.TestAnyName, dom.TestNSName:
		return true
	}
	return false
}

// readsOutside reports whether any operator or scalar outside the chain
// reads one of the chain's interior registers. The translation never keeps
// interior step attributes live above their step, so this almost never
// fires — it turns that convention into an enforced invariant. Unknown
// attributes count as reads (fail safe).
func (p *Plan) readsOutside(chain map[algebra.Op]bool, interior map[int]bool) bool {
	found := false
	read := func(attr string) {
		if r, ok := p.regs[attr]; !ok || interior[r] {
			found = true
		}
	}
	var walkPlan func(algebra.Op)
	walkPlan = func(o algebra.Op) {
		if chain[o] {
			return
		}
		algebra.Reads(o, read, walkPlan)
		for _, c := range o.Children() {
			walkPlan(c)
		}
	}
	walkPlan(p.source.Plan)
	return found
}

// pathScanSetup is the fixed cost charged to the index access path: match
// resolution and merge amortization. It keeps trivially cheap walks (a
// one-step child chain over a handful of nodes) on the navigation plan.
const pathScanSetup = 64

// storeWalkUnit weights walked nodes on documents that own a persisted
// index (the paged store): every navigation step there decodes a record
// through the buffer manager, while the in-memory arena follows a pointer.
const storeWalkUnit = 4

// buildPathScan makes the instantiation-time access-path decision for a
// candidate. It returns the PathIndexScan iterator, or nil to fall back to
// the untouched builder. On instrumented executions the decision — either
// way — is recorded under the top operator's slot; only they allocate the
// record.
func (p *Plan) buildPathScan(ex *physical.Exec, pc *pathCand, slot int) physical.Iter {
	ap, m := decideAccess(ex, pc)
	if ex.Prof != nil {
		if ex.Prof.Access == nil {
			ex.Prof.Access = map[int]*physical.AccessPath{}
		}
		rec := ap
		ex.Prof.Access[slot] = &rec
	}
	if !ap.Chosen {
		return nil
	}
	return &physical.PathIndexScan{Ex: ex, OutReg: pc.outReg, IDs: m.Nodes(), Batch: pc.batch}
}

// decideAccess prices a candidate against the execution's document. The
// summary match comes from the index's memo, so only the first run of a
// chain on a document walks the summary; the cost comparison runs every
// time. The match is nil unless the summary answers the chain.
func decideAccess(ex *physical.Exec, pc *pathCand) (physical.AccessPath, *pathindex.Match) {
	ap := physical.AccessPath{Pattern: pc.pattern}
	ix := pathindex.For(ex.CtxDoc)
	if ix == nil {
		ap.Reason = "no-index"
		return ap, nil
	}
	m, ok := ix.Match(pc.key, pc.steps)
	if !ok {
		ap.Reason = "no-match"
		return ap, nil
	}
	ap.Est, ap.WalkEst = m.Count, m.Walk
	walkUnit := int64(1)
	if _, owned := ex.CtxDoc.(pathindex.Provider); owned {
		walkUnit = storeWalkUnit
	}
	if pathScanSetup+m.Count >= m.Walk*walkUnit {
		ap.Reason = "cost"
	} else {
		ap.Chosen = true
	}
	return ap, m
}
