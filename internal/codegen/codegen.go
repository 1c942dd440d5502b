// Package codegen is step 6 of the compilation pipeline (paper section
// 5.1): it turns a translated logical plan into an executable physical plan
// for the NQE. Its attribute manager maps attributes to registers of the
// virtual machine's register file; attribute renamings and pure attribute
// maps become register aliases, so no copy instructions are emitted.
package codegen

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"natix/internal/algebra"
	"natix/internal/dom"
	"natix/internal/guard"
	"natix/internal/metrics"
	"natix/internal/nvm"
	"natix/internal/physical"
	"natix/internal/translate"
	"natix/internal/xfn"
	"natix/internal/xval"
)

// builder instantiates an iterator bound to a specific execution.
type builder func(ex *physical.Exec) physical.Iter

// Plan is a compiled, executable query. A Plan is immutable and safe for
// concurrent Run calls; each run gets its own register file and machine.
type Plan struct {
	source  *translate.Result
	numRegs int
	ctxReg  int

	root        builder // nil for scalar queries
	rootAttrReg int
	scalarProg  *nvm.Program

	subplans []builder
	numMemos int

	// DisableSmartAgg turns off aggregate early exit for ablations.
	DisableSmartAgg bool

	// BatchSize is the node-column batch size of the batched execution
	// protocol; 0 runs the plan scalar. Compile sets the default; callers
	// may override it before the first Run.
	BatchSize int

	// batchCol records, for every operator of the main tree that serves
	// the batched protocol, the register of the node column it produces.
	// Populated once by Compile and read-only afterwards, so concurrent
	// Run instantiations read it without synchronization.
	batchCol map[algebra.Op]int

	// pathCand holds the access-path candidates of the path-index selection
	// pass (pathsel.go), keyed by chain-top operator. Empty unless
	// MarkPathIndex ran; read-only afterwards.
	pathCand map[algebra.Op]*pathCand

	// WrapIter, when set, wraps every iterator instantiated for a run.
	// It is a test hook (leak detection harnesses); set it before any
	// Run call — it is not synchronized.
	WrapIter func(physical.Iter) physical.Iter

	// regs and progs preserve the attribute manager's mapping and the
	// compiled subscript programs for ExplainPhysical.
	regs  map[string]int
	progs map[algebra.Op][]*nvm.Program

	// opSlot maps every compiled operator to its index in a Profile's Ops
	// (ExplainAnalyze); numOps and numProgs size a fresh Profile.
	opSlot   map[algebra.Op]int
	numOps   int
	numProgs int

	ids   *xfn.IDIndex
	names *xfn.NameIndex
}

// Compile generates the physical plan for a translation result.
func Compile(res *translate.Result) (*Plan, error) {
	g := &generator{
		plan: &Plan{
			source:   res,
			ids:      xfn.NewIDIndex(),
			names:    xfn.GlobalNames,
			progs:    map[algebra.Op][]*nvm.Program{},
			opSlot:   map[algebra.Op]int{},
			batchCol: map[algebra.Op]int{},
			pathCand: map[algebra.Op]*pathCand{},
		},
		regs: map[string]int{},
	}
	g.plan.ctxReg = g.regFor(translate.TopContextAttr)
	if res.IsSequence() {
		b, err := g.compile(res.Plan)
		if err != nil {
			return nil, err
		}
		g.plan.root = b
		g.plan.rootAttrReg = g.regFor(res.Attr)
		g.plan.BatchSize = physical.DefaultBatchSize
		g.markBatch(res.Plan, g.plan.rootAttrReg)
	} else {
		prog, err := g.compileScalar(res.Scalar)
		if err != nil {
			return nil, err
		}
		g.plan.scalarProg = prog
	}
	g.plan.numRegs = g.next
	g.plan.regs = g.regs
	return g.plan, nil
}

// Result is the outcome of one execution.
type Result struct {
	Value xval.Value
	Stats physical.Stats
}

// Run executes the plan with the given context node and variable bindings,
// without a cancellation context or resource limits.
func (p *Plan) Run(ctx dom.Node, vars map[string]xval.Value) (*Result, error) {
	return p.RunContext(context.Background(), guard.Limits{}, ctx, vars)
}

// faulter is implemented by documents whose navigation can hit I/O or
// corruption errors after open (the paged store). Navigation interfaces
// return plain values, so faults are recorded sticky on the document and
// collected here: periodically by the governor, and unconditionally before
// a result is returned, so a faulted run can never report success.
type faulter interface{ Err() error }

// RunContext executes the plan under a cancellation context and resource
// limits. Cancellation and budget errors surface as the context's error or
// a *guard.LimitError, with every opened iterator closed on the way out.
func (p *Plan) RunContext(stdctx context.Context, limits guard.Limits, ctx dom.Node, vars map[string]xval.Value) (*Result, error) {
	return p.run(stdctx, limits, ctx, vars, nil)
}

// run is the shared execution core; prof, when non-nil, threads per-operator
// and per-program instrumentation through the machine and every iterator.
func (p *Plan) run(stdctx context.Context, limits guard.Limits, ctx dom.Node, vars map[string]xval.Value, prof *physical.Profile) (*Result, error) {
	if ctx.IsNil() {
		return nil, fmt.Errorf("codegen: nil context node")
	}
	var faultFn func() error
	if f, ok := ctx.Doc.(faulter); ok {
		faultFn = f.Err
	}
	gov := guard.New(stdctx, limits, faultFn)
	m := &nvm.Machine{
		Regs:        make([]nvm.Val, p.numRegs),
		Vars:        vars,
		Memos:       make([]map[any]nvm.Val, p.numMemos),
		NoEarlyExit: p.DisableSmartAgg,
		Gov:         gov,
	}
	ex := &physical.Exec{M: m, IDs: p.ids, Names: p.names, CtxDoc: ctx.Doc, Gov: gov, WrapIter: p.WrapIter, BatchSize: p.BatchSize}
	if prof != nil {
		m.Prof = prof.Progs
		ex.Prof = prof
	}
	m.Regs[p.ctxReg] = nvm.NodeVal(ctx)
	m.Subplans = make([]nvm.Iterator, len(p.subplans))
	for i, b := range p.subplans {
		m.Subplans[i] = b(ex)
	}

	if p.scalarProg != nil {
		v, err := m.Run(p.scalarProg)
		if err != nil {
			return nil, err
		}
		if err := gov.Check(); err != nil {
			return nil, err
		}
		return &Result{Value: v.Value(), Stats: ex.Stats}, nil
	}

	it := p.root(ex)
	if err := it.Open(); err != nil {
		return nil, err
	}
	var nodes []dom.Node
	if bi, ok := it.(physical.BatchIter); ok && bi.Batched() {
		// Batched drain: the root pipeline delivers node columns directly,
		// so the per-tuple register read disappears and byte-budget
		// charging amortizes across the batch.
		buf := ex.GetNodeBuf()
		for {
			k, err := bi.NextBatch(buf)
			if err != nil {
				ex.PutNodeBuf(buf)
				it.Close()
				return nil, err
			}
			if k == 0 {
				break
			}
			if metrics.Enabled() {
				mBatchFill.Observe(float64(k) / float64(len(buf)))
			}
			if err := gov.Grow(int64(k) * resultNodeBytes); err != nil {
				ex.PutNodeBuf(buf)
				it.Close()
				return nil, err
			}
			nodes = append(nodes, buf[:k]...)
		}
		ex.PutNodeBuf(buf)
	} else {
		for {
			ok, err := it.Next()
			if err != nil {
				it.Close()
				return nil, err
			}
			if !ok {
				break
			}
			if err := gov.Grow(resultNodeBytes); err != nil {
				it.Close()
				return nil, err
			}
			nodes = append(nodes, m.Regs[p.rootAttrReg].Node())
		}
	}
	if err := it.Close(); err != nil {
		return nil, err
	}
	// Final governor check: a store fault or cancellation that raced the
	// last poll window must fail the run rather than return partial data.
	if err := gov.Check(); err != nil {
		return nil, err
	}
	return &Result{Value: xval.NodeSet(nodes), Stats: ex.Stats}, nil
}

// resultNodeBytes is the byte-budget charge per node of the materialized
// result sequence.
const resultNodeBytes = 24

// Size-estimate unit costs. Like the materialization estimates of the
// physical package, these are deliberately coarse: the plan cache's byte
// budget bounds runaway growth, it does not meter the allocator.
const (
	planBaseBytes  = 512 // Plan struct, registers map, slices
	regBytes       = 24  // one register name/index pair
	instrBytes     = 32  // one NVM instruction
	constBytes     = 64  // one program constant (may carry a string)
	progBaseBytes  = 96  // Program struct and its slice headers
	opBytes        = 192 // one compiled operator: builder closure + opSlot entry
	subplanBytes   = 64  // one subplan builder slot
	memoSlotBytes  = 48  // one memo-cache slot
	indexBaseBytes = 256 // empty per-plan IDIndex
)

// SizeEstimate returns a coarse estimate of the compiled plan's resident
// bytes: the register file layout, every compiled subscript program, the
// operator builders and the memo/subplan slots. The plan cache charges this
// against its byte budget; per-document index caches built lazily at run
// time are not included (they are bounded by document size, not plan count).
func (p *Plan) SizeEstimate() int64 {
	progBytes := func(pr *nvm.Program) int64 {
		return progBaseBytes + int64(len(pr.Code))*instrBytes +
			int64(len(pr.Consts))*constBytes + int64(len(pr.Names))*regBytes
	}
	n := int64(planBaseBytes) + indexBaseBytes
	n += int64(p.numRegs) * regBytes
	for _, progs := range p.progs {
		for _, pr := range progs {
			n += progBytes(pr)
		}
	}
	if p.scalarProg != nil {
		n += progBytes(p.scalarProg)
	}
	n += int64(p.numOps) * opBytes
	n += int64(len(p.subplans)) * subplanBytes
	n += int64(p.numMemos) * memoSlotBytes
	return n
}

// Explain renders the logical plan the physical plan was generated from.
func (p *Plan) Explain() string {
	if p.source.IsSequence() {
		return algebra.Explain(p.source.Plan)
	}
	return p.source.Scalar.String() + "\n"
}

// generator carries compilation state: the attribute manager (regs) and
// the accumulating plan.
type generator struct {
	plan *Plan
	regs map[string]int
	next int
}

// regFor resolves an attribute to its register, allocating on first use.
func (g *generator) regFor(attr string) int {
	if r, ok := g.regs[attr]; ok {
		return r
	}
	r := g.next
	g.next++
	g.regs[attr] = r
	return r
}

// alias binds attribute to the register of from without allocating.
func (g *generator) alias(attr, from string) {
	g.regs[attr] = g.regFor(from)
}

// producedRegs collects the registers bound by ops of the subtree (the
// snapshot set of materializing operators). Nested subscript plans
// re-evaluate and are excluded.
func (g *generator) producedRegs(op algebra.Op) []int {
	set := map[int]struct{}{}
	var walk func(algebra.Op)
	walk = func(o algebra.Op) {
		for _, a := range o.Produced() {
			set[g.regFor(a)] = struct{}{}
		}
		for _, c := range o.Children() {
			walk(c)
		}
	}
	walk(op)
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// compile wraps compileOp so every instantiated iterator passes through the
// Exec's WrapIter hook (leak-detection harnesses) and, on instrumented
// executions, through a per-operator Instrumented shim. Subplan roots and
// intermediate operators alike are wrapped, so a counting hook observes the
// complete Open/Close traffic of a run and a Profile accounts every
// operator of the tree (pure-alias operators wrap their input's iterator
// and report as pass-throughs).
func (g *generator) compile(op algebra.Op) (builder, error) {
	b, err := g.compileOp(op)
	if err != nil {
		return nil, err
	}
	slot, ok := g.plan.opSlot[op]
	if !ok {
		slot = g.plan.numOps
		g.plan.numOps++
		g.plan.opSlot[op] = slot
	}
	opRef := op
	plan := g.plan
	return func(ex *physical.Exec) physical.Iter {
		var it physical.Iter
		// Access-path selection first: a chain the path index answers for
		// this execution's document — and wins on cost — replaces the whole
		// subtree with a PathIndexScan. The decision depends on the document,
		// so it happens at instantiation; buildPathScan returns nil to fall
		// back (no index, no match, or the walk is cheaper).
		if pc := plan.pathCand[opRef]; pc != nil {
			it = plan.buildPathScan(ex, pc, slot)
		}
		if it == nil {
			it = b(ex)
		}
		if ex.WrapIter != nil {
			w := ex.WrapIter(it)
			if w != it {
				// Keep the batched protocol reachable through opaque
				// harness wrappers (Instrumented re-exposes it itself).
				if bi, ok := it.(physical.BatchIter); ok {
					w = physical.WrapBatched(w, bi)
				}
			}
			it = w
		}
		if ex.Prof != nil {
			it = &physical.Instrumented{It: it, Stat: &ex.Prof.Ops[slot], Gov: ex.Gov}
		}
		return it
	}, nil
}

func (g *generator) compileOp(op algebra.Op) (builder, error) {
	switch o := op.(type) {
	case *algebra.SingletonScan:
		return func(*physical.Exec) physical.Iter { return &physical.SingletonScan{} }, nil

	case *algebra.IndexScan:
		out := g.regFor(o.Attr)
		uri, local := indexKey(o.Test)
		plan := g.plan
		return func(ex *physical.Exec) physical.Iter {
			_, batch := plan.batchCol[op]
			return &physical.IndexScan{Ex: ex, OutReg: out, URI: uri, Local: local, Batch: batch}
		}, nil

	case *algebra.VarScan:
		out := g.regFor(o.Attr)
		name := o.Name
		plan := g.plan
		return func(ex *physical.Exec) physical.Iter {
			_, batch := plan.batchCol[op]
			return &physical.VarScan{Ex: ex, Name: name, OutReg: out, Batch: batch}
		}, nil

	case *algebra.UnnestMap:
		in, err := g.compile(o.In)
		if err != nil {
			return nil, err
		}
		inReg := g.regFor(o.InAttr)
		outReg := g.regFor(o.OutAttr)
		epochReg := -1
		if o.EpochAttr != "" {
			epochReg = g.regFor(o.EpochAttr)
		}
		axis, test := o.Axis, o.Test
		plan := g.plan
		return func(ex *physical.Exec) physical.Iter {
			_, batch := plan.batchCol[op]
			return &physical.UnnestMap{
				Ex: ex, In: in(ex), InReg: inReg, OutReg: outReg,
				EpochReg: epochReg, Axis: axis, Test: test, Batch: batch,
			}
		}, nil

	case *algebra.Select:
		in, err := g.compile(o.In)
		if err != nil {
			return nil, err
		}
		prog, err := g.compileScalar(o.Pred)
		if err != nil {
			return nil, err
		}
		g.plan.progs[op] = append(g.plan.progs[op], prog)
		plan := g.plan
		return func(ex *physical.Exec) physical.Iter {
			col, batch := plan.batchCol[op]
			return &physical.Select{Ex: ex, In: in(ex), Prog: prog, Batch: batch, Col: col}
		}, nil

	case *algebra.Map:
		// Pure attribute access: alias registers, emit nothing (the
		// attribute manager optimization of section 5.1).
		if ref, ok := o.Expr.(*algebra.AttrRef); ok {
			in, err := g.compile(o.In)
			if err != nil {
				return nil, err
			}
			g.alias(o.Attr, ref.Name)
			return in, nil
		}
		return g.compileMap(op, o.In, o.Attr, o.Expr)

	case *algebra.MemoMap:
		// χ^mat: a map whose program caches per key attribute.
		return g.compileMap(op, o.In, o.Attr, &algebra.Memo{X: o.Expr, KeyAttr: o.KeyAttr})

	case *algebra.PosMap:
		in, err := g.compile(o.In)
		if err != nil {
			return nil, err
		}
		outReg := g.regFor(o.Attr)
		epochReg := -1
		if o.CtxAttr != "" {
			epochReg = g.regFor(o.CtxAttr)
		}
		return func(ex *physical.Exec) physical.Iter {
			return &physical.PosMap{Ex: ex, In: in(ex), OutReg: outReg, EpochReg: epochReg}
		}, nil

	case *algebra.TmpCS:
		in, err := g.compile(o.In)
		if err != nil {
			return nil, err
		}
		posReg := g.regFor(o.PosAttr)
		outReg := g.regFor(o.OutAttr)
		epochReg := -1
		if o.CtxAttr != "" {
			epochReg = g.regFor(o.CtxAttr)
		}
		save := g.producedRegs(o.In)
		return func(ex *physical.Exec) physical.Iter {
			return &physical.TmpCS{
				Ex: ex, In: in(ex), PosReg: posReg, OutReg: outReg,
				EpochReg: epochReg, SaveRegs: save,
			}
		}, nil

	case *algebra.DJoin:
		l, err := g.compile(o.L)
		if err != nil {
			return nil, err
		}
		r, err := g.compile(o.R)
		if err != nil {
			return nil, err
		}
		return func(ex *physical.Exec) physical.Iter {
			return &physical.DJoin{L: l(ex), R: r(ex)}
		}, nil

	case *algebra.MemoX:
		in, err := g.compile(o.In)
		if err != nil {
			return nil, err
		}
		keyReg := g.regFor(o.KeyAttr)
		save := g.producedRegs(o.In)
		return func(ex *physical.Exec) physical.Iter {
			return &physical.MemoX{Ex: ex, In: in(ex), KeyReg: keyReg, SaveRegs: save}
		}, nil

	case *algebra.DupElim:
		in, err := g.compile(o.In)
		if err != nil {
			return nil, err
		}
		attrReg := g.regFor(o.Attr)
		plan := g.plan
		return func(ex *physical.Exec) physical.Iter {
			_, batch := plan.batchCol[op]
			return &physical.DupElim{Ex: ex, In: in(ex), AttrReg: attrReg, Batch: batch}
		}, nil

	case *algebra.Concat:
		ins := make([]builder, len(o.Ins))
		for i, c := range o.Ins {
			b, err := g.compile(c)
			if err != nil {
				return nil, err
			}
			ins[i] = b
		}
		plan := g.plan
		return func(ex *physical.Exec) physical.Iter {
			its := make([]physical.Iter, len(ins))
			for i, b := range ins {
				its[i] = b(ex)
			}
			col, batch := plan.batchCol[op]
			return &physical.Concat{Ins: its, Ex: ex, Col: col, Batch: batch}
		}, nil

	case *algebra.Rename:
		// Bind the source attribute to the target's register BEFORE
		// compiling the input, so the producers inside write directly into
		// the shared register. This direction matters for unions: every
		// branch renames its own attribute to the common one, and aliasing
		// the other way would leave earlier branches writing elsewhere.
		g.alias(o.From, o.To)
		return g.compile(o.In)

	case *algebra.Sort:
		in, err := g.compile(o.In)
		if err != nil {
			return nil, err
		}
		attrReg := g.regFor(o.Attr)
		save := g.producedRegs(o.In)
		plan := g.plan
		return func(ex *physical.Exec) physical.Iter {
			_, batch := plan.batchCol[op]
			return &physical.SortIter{Ex: ex, In: in(ex), AttrReg: attrReg, SaveRegs: save, Batch: batch}
		}, nil

	case *algebra.Tokenize:
		in, err := g.compile(o.In)
		if err != nil {
			return nil, err
		}
		prog, err := g.compileScalar(o.Expr)
		if err != nil {
			return nil, err
		}
		g.plan.progs[op] = append(g.plan.progs[op], prog)
		outReg := g.regFor(o.Attr)
		return func(ex *physical.Exec) physical.Iter {
			return &physical.TokenizeIter{Ex: ex, In: in(ex), Prog: prog, OutReg: outReg}
		}, nil

	case *algebra.Deref:
		in, err := g.compile(o.In)
		if err != nil {
			return nil, err
		}
		prog, err := g.compileScalar(o.Expr)
		if err != nil {
			return nil, err
		}
		g.plan.progs[op] = append(g.plan.progs[op], prog)
		outReg := g.regFor(o.Attr)
		return func(ex *physical.Exec) physical.Iter {
			return &physical.DerefIter{Ex: ex, In: in(ex), Prog: prog, OutReg: outReg}
		}, nil

	case *algebra.Cross:
		l, err := g.compile(o.L)
		if err != nil {
			return nil, err
		}
		r, err := g.compile(o.R)
		if err != nil {
			return nil, err
		}
		save := g.producedRegs(o.R)
		return func(ex *physical.Exec) physical.Iter {
			return &physical.CrossIter{Ex: ex, L: l(ex), R: r(ex), RSaveRegs: save}
		}, nil

	case *algebra.Unnest:
		in, err := g.compile(o.In)
		if err != nil {
			return nil, err
		}
		attrReg := g.regFor(o.Attr)
		outReg := g.regFor(o.OutAttr)
		return func(ex *physical.Exec) physical.Iter {
			return &physical.UnnestIter{Ex: ex, In: in(ex), AttrReg: attrReg, OutReg: outReg}
		}, nil

	case *algebra.Group:
		l, err := g.compile(o.L)
		if err != nil {
			return nil, err
		}
		r, err := g.compile(o.R)
		if err != nil {
			return nil, err
		}
		outReg := g.regFor(o.OutAttr)
		lReg := g.regFor(o.LAttr)
		rReg := g.regFor(o.RAttr)
		aggReg := g.regFor(o.AggAttr)
		theta, agg := o.Theta, aggCode(o.Agg)
		return func(ex *physical.Exec) physical.Iter {
			return &physical.GroupIter{
				Ex: ex, L: l(ex), R: r(ex), OutReg: outReg,
				LReg: lReg, RReg: rReg, AggReg: aggReg, Theta: theta, Agg: agg,
			}
		}, nil

	case *algebra.ExistsJoin:
		l, err := g.compile(o.L)
		if err != nil {
			return nil, err
		}
		r, err := g.compile(o.R)
		if err != nil {
			return nil, err
		}
		lReg := g.regFor(o.LAttr)
		rReg := g.regFor(o.RAttr)
		eq := o.Eq
		return func(ex *physical.Exec) physical.Iter {
			return &physical.ExistsJoin{Ex: ex, L: l(ex), R: r(ex), LReg: lReg, RReg: rReg, Eq: eq}
		}, nil
	}
	return nil, fmt.Errorf("codegen: unsupported operator %T", op)
}

// indexKey maps a name test to the NameIndex lookup key.
func indexKey(t dom.NodeTest) (uri, local string) {
	switch t.Kind {
	case dom.TestAnyName:
		return "*", ""
	case dom.TestNSName:
		return t.URI, "*"
	default:
		return t.URI, t.Local
	}
}

func (g *generator) compileMap(op, in algebra.Op, attr string, expr algebra.Scalar) (builder, error) {
	inB, err := g.compile(in)
	if err != nil {
		return nil, err
	}
	prog, err := g.compileScalar(expr)
	if err != nil {
		return nil, err
	}
	g.plan.progs[op] = append(g.plan.progs[op], prog)
	outReg := g.regFor(attr)
	return func(ex *physical.Exec) physical.Iter {
		return &physical.Map{Ex: ex, In: inB(ex), Prog: prog, OutReg: outReg}
	}, nil
}

// ExplainPhysical renders the generated physical plan: the operator tree
// with resolved register assignments, and the NVM disassembly of every
// subscript program — "an execution plan in the NQE syntax" (section 5.1).
func (p *Plan) ExplainPhysical() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "registers: %d", p.numRegs)
	names := make([]string, 0, len(p.regs))
	for n := range p.regs {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if p.regs[names[i]] != p.regs[names[j]] {
			return p.regs[names[i]] < p.regs[names[j]]
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		fmt.Fprintf(&sb, "  %s=r%d", n, p.regs[n])
	}
	sb.WriteByte('\n')
	if p.scalarProg != nil {
		sb.WriteString(indent(p.scalarProg.Disasm(), "  "))
		return sb.String()
	}
	p.explainOp(&sb, p.source.Plan, 0)
	return sb.String()
}

func (p *Plan) explainOp(sb *strings.Builder, op algebra.Op, depth int) {
	pad := strings.Repeat("  ", depth)
	if pc := p.pathCand[op]; pc != nil {
		// Candidate chains of the path-index selection pass are decided per
		// document at instantiation; the physical plan shows where.
		fmt.Fprintf(sb, "%s%s  <path-index candidate [%s]>\n", pad, op, pc.pattern)
	} else {
		fmt.Fprintf(sb, "%s%s\n", pad, op)
	}
	for _, prog := range p.progs[op] {
		sb.WriteString(indent(prog.Disasm(), pad+"  | "))
	}
	// Nested subscript plans (aggregation subplans) follow their program.
	for _, sc := range algebra.Scalars(op) {
		algebra.WalkScalar(sc, func(s algebra.Scalar) {
			if agg, ok := s.(*algebra.NestedAgg); ok {
				fmt.Fprintf(sb, "%s  |-- nested plan (%s over %s):\n", pad, agg.Agg, agg.Attr)
				p.explainOp(sb, agg.Plan, depth+2)
			}
		})
	}
	for _, c := range op.Children() {
		p.explainOp(sb, c, depth+1)
	}
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = pad + l
	}
	return strings.Join(lines, "\n") + "\n"
}
