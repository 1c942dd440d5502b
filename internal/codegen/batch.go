// Batchability analysis for the batched execution protocol (physical
// package, batch.go). Marking runs once per compilation, after the builders
// and subscript programs exist, and walks the main tree top-down from the
// root carrying the register of the single node column the consumer above
// reads. An operator is marked batch-capable when it provably communicates
// with that consumer through the column alone — no other register of its
// output is read above it — so its NextBatch may skip the register file
// entirely. The walk stops at the first operator that fails the test;
// everything below keeps the scalar protocol and the adapter bridges the
// seam.
package codegen

import (
	"natix/internal/algebra"
	"natix/internal/metrics"
)

// mBatchFill observes the fill ratio of every result batch drained from a
// batched root pipeline: fraction of the batch buffer actually filled. Low
// fill means the pipeline is paying batch overhead for scalar-like traffic.
var mBatchFill = metrics.Default.RatioHistogram("natix_batch_fill_ratio", "Fill ratio of node-column batches drained from batched query roots.")

// markBatch marks the batch-capable suffix of the tree rooted at op, whose
// consumer reads only the node column in register col.
//
// Deliberately unmarked: aggregates and their subplans (batching would
// defeat the smart-aggregate early exit), the materializing context
// operators (PosMap, TmpCS), joins, program maps, Tokenize and Deref —
// their per-tuple register traffic is exactly what the scalar protocol
// models. The Fig. 5 hot chains (Υ/Π^D pipelines) mark end to end.
func (g *generator) markBatch(op algebra.Op, col int) {
	switch o := op.(type) {
	case *algebra.UnnestMap:
		// The epoch-attribute variant also writes a context-epoch register
		// read by positional machinery above: scalar only.
		if g.regFor(o.OutAttr) != col || o.EpochAttr != "" {
			return
		}
		g.plan.batchCol[op] = col
		g.markBatch(o.In, g.regFor(o.InAttr))

	case *algebra.DupElim:
		if g.regFor(o.Attr) != col {
			return
		}
		g.plan.batchCol[op] = col
		g.markBatch(o.In, col)

	case *algebra.Sort:
		if g.regFor(o.Attr) != col {
			return
		}
		g.plan.batchCol[op] = col
		g.markBatch(o.In, col)

	case *algebra.Select:
		// Pass-through of its input's column; batch-safe iff the predicate
		// — including any nested aggregate subplans — reads no register but
		// the column, so staging each candidate node into that register
		// reproduces the scalar evaluation exactly.
		if !g.readsOnly(o, col) {
			return
		}
		g.plan.batchCol[op] = col
		g.markBatch(o.In, col)

	case *algebra.Concat:
		g.plan.batchCol[op] = col
		for _, c := range o.Ins {
			g.markBatch(c, col)
		}

	case *algebra.Rename:
		// No iterator of its own; From is aliased to To's register.
		g.markBatch(o.In, col)

	case *algebra.Map:
		// Pure attribute access compiles to a register alias — also no
		// iterator of its own.
		if _, ok := o.Expr.(*algebra.AttrRef); ok {
			g.markBatch(o.In, col)
		}

	case *algebra.VarScan:
		if g.regFor(o.Attr) == col {
			g.plan.batchCol[op] = col
		}
	}
}

// readsOnly reports whether a selection's free register reads in its
// predicate are confined to col. Free means: registers produced inside a
// nested aggregate's own subplan don't count — they are internal to its
// evaluation — but everything the subplan consumes from its environment
// does. The walk resolves attribute names through the attribute manager,
// so register aliases (renames, pure attribute maps) compare correctly.
func (g *generator) readsOnly(sel *algebra.Select, col int) bool {
	reads := map[int]struct{}{}
	produced := map[int]struct{}{}
	read := func(a string) { reads[g.regFor(a)] = struct{}{} }
	var walkPlan func(algebra.Op)
	walkPlan = func(o algebra.Op) {
		for _, a := range o.Produced() {
			produced[g.regFor(a)] = struct{}{}
		}
		algebra.Reads(o, read, walkPlan)
		for _, c := range o.Children() {
			walkPlan(c)
		}
	}
	// The selection itself reads only its predicate; its input is not
	// part of the predicate's environment.
	algebra.Reads(sel, read, walkPlan)
	for r := range produced {
		delete(reads, r)
	}
	for r := range reads {
		if r != col {
			return false
		}
	}
	return true
}
