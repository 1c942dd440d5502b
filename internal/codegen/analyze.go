package codegen

import (
	"context"
	"fmt"
	"strings"
	"time"

	"natix/internal/algebra"
	"natix/internal/dom"
	"natix/internal/guard"
	"natix/internal/nvm"
	"natix/internal/physical"
	"natix/internal/xval"
)

// NewProfile returns an empty profile sized for this plan's operators and
// subscript programs.
func (p *Plan) NewProfile() *physical.Profile {
	return &physical.Profile{
		Ops:   make([]physical.OpStat, p.numOps),
		Progs: make([]nvm.ProgStat, p.numProgs),
	}
}

// ExplainAnalyze executes the plan under full instrumentation and renders
// the annotated operator tree: per operator the tuples produced, open
// count, cumulative and self wall time, and net materialized bytes; per
// subscript program its run count, executed instructions and time. The
// execution itself obeys the same context/limit contract as RunContext.
func (p *Plan) ExplainAnalyze(stdctx context.Context, limits guard.Limits, ctx dom.Node, vars map[string]xval.Value) (*Result, string, error) {
	prof := p.NewProfile()
	res, err := p.run(stdctx, limits, ctx, vars, prof)
	if err != nil {
		return nil, "", err
	}
	return res, p.RenderProfile(prof, res), nil
}

// RenderProfile renders a profile collected by an instrumented run of this
// plan as the annotated operator tree.
func (p *Plan) RenderProfile(prof *physical.Profile, res *Result) string {
	var sb strings.Builder
	st := res.Stats
	fmt.Fprintf(&sb, "totals: tuples=%d axis-steps=%d dup-dropped=%d memo=%d/%d sorted=%d\n",
		st.Tuples, st.AxisSteps, st.DupDropped, st.MemoHits, st.MemoHits+st.MemoMisses, st.Sorted)
	if p.scalarProg != nil {
		p.analyzeProg(&sb, p.scalarProg, "", prof)
		p.analyzeNested(&sb, p.source.Scalar, "", prof)
		return sb.String()
	}
	p.analyzeOp(&sb, p.source.Plan, 0, prof)
	return sb.String()
}

// ScanTuples sums the tuples produced by the profile's scan-family
// operators (unnest-maps, index scans, and path-index scans standing in for
// a replaced chain) — by construction equal to the run's Stats.Tuples
// counter; the consistency test in this package holds the two accounts
// together.
func (p *Plan) ScanTuples(prof *physical.Profile) int64 {
	var n int64
	for op, slot := range p.opSlot {
		if ap := prof.Access[slot]; ap != nil && ap.Chosen {
			// A PathIndexScan replaced the chain under this slot; its
			// output is the whole chain's scan account (the unnest-maps
			// below it never instantiated and show zero).
			n += prof.Ops[slot].Out
			continue
		}
		switch op.(type) {
		case *algebra.UnnestMap, *algebra.IndexScan:
			n += prof.Ops[slot].Out
		}
	}
	return n
}

func (p *Plan) analyzeOp(sb *strings.Builder, op algebra.Op, depth int, prof *physical.Profile) {
	pad := strings.Repeat("  ", depth)
	if slot, ok := p.opSlot[op]; ok {
		st := prof.Ops[slot]
		self := st.Time
		for _, c := range op.Children() {
			if cs, ok := p.opSlot[c]; ok {
				self -= prof.Ops[cs].Time
			}
		}
		if self < 0 {
			self = 0
		}
		fmt.Fprintf(sb, "%s%s  (out=%d opens=%d time=%s self=%s bytes=%d)\n",
			pad, op, st.Out, st.Opens, fmtDur(st.Time), fmtDur(self), st.Bytes)
		// An access-path decision of the path-index selection pass attaches
		// to the candidate chain's top operator: the chosen line compares
		// the summary's estimate against the actual output of the scan.
		if ap := prof.Access[slot]; ap != nil {
			if ap.Chosen {
				fmt.Fprintf(sb, "%s  => access path: PathIndexScan[%s]  (est=%d actual=%d walk-est=%d)\n",
					pad, ap.Pattern, ap.Est, st.Out, ap.WalkEst)
			} else if ap.Reason == "cost" {
				fmt.Fprintf(sb, "%s  => access path: navigation [%s]  (cost: est=%d walk-est=%d)\n",
					pad, ap.Pattern, ap.Est, ap.WalkEst)
			} else {
				fmt.Fprintf(sb, "%s  => access path: navigation [%s]  (%s)\n",
					pad, ap.Pattern, ap.Reason)
			}
		}
	} else {
		fmt.Fprintf(sb, "%s%s\n", pad, op)
	}
	for _, prog := range p.progs[op] {
		p.analyzeProg(sb, prog, pad+"  | ", prof)
	}
	for _, sc := range algebra.Scalars(op) {
		p.analyzeNestedPlans(sb, sc, depth, prof)
	}
	for _, c := range op.Children() {
		p.analyzeOp(sb, c, depth+1, prof)
	}
}

// analyzeProg prints one subscript program's account.
func (p *Plan) analyzeProg(sb *strings.Builder, prog *nvm.Program, pad string, prof *physical.Profile) {
	var st nvm.ProgStat
	if prog.ID >= 0 && prog.ID < len(prof.Progs) {
		st = prof.Progs[prog.ID]
	}
	fmt.Fprintf(sb, "%sprog[%s]  (runs=%d steps=%d time=%s)\n",
		pad, prog.SourceText(), st.Runs, st.Steps, fmtDur(st.Time))
}

// analyzeNested renders the nested aggregation plans reachable from a
// scalar expression (the scalar-query case).
func (p *Plan) analyzeNested(sb *strings.Builder, sc algebra.Scalar, pad string, prof *physical.Profile) {
	if sc == nil {
		return
	}
	algebra.WalkScalar(sc, func(s algebra.Scalar) {
		if agg, ok := s.(*algebra.NestedAgg); ok {
			fmt.Fprintf(sb, "%snested plan (%s over %s):\n", pad, agg.Agg, agg.Attr)
			p.analyzeOp(sb, agg.Plan, 1, prof)
		}
	})
}

// analyzeNestedPlans mirrors ExplainPhysical's nested-plan rendering with
// stats attached.
func (p *Plan) analyzeNestedPlans(sb *strings.Builder, sc algebra.Scalar, depth int, prof *physical.Profile) {
	pad := strings.Repeat("  ", depth)
	algebra.WalkScalar(sc, func(s algebra.Scalar) {
		if agg, ok := s.(*algebra.NestedAgg); ok {
			fmt.Fprintf(sb, "%s  |-- nested plan (%s over %s):\n", pad, agg.Agg, agg.Attr)
			p.analyzeOp(sb, agg.Plan, depth+2, prof)
		}
	})
}

// fmtDur renders durations compactly with microsecond resolution at most.
func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}
