// Package natix is a from-scratch Go reproduction of "Full-fledged
// Algebraic XPath Processing in Natix" (Brantner, Helmer, Kanne, Moerkotte;
// ICDE 2005): a complete compiler from XPath 1.0 into an algebra over
// ordered tuple sequences, executed by an iterator-based physical engine
// over either in-memory documents or the paged Natix-style store.
//
// # Quick start
//
//	doc, err := natix.ParseDocument(strings.NewReader(xmlText))
//	q, err := natix.Compile("//chapter[position() = last()]/title")
//	res, err := q.Run(doc.RootNode(), nil)
//	for _, n := range res.Value.Nodes { fmt.Println(n.StringValue()) }
//
// The compilation pipeline follows the paper's section 5.1: parsing,
// normalization, semantic analysis, constant folding, translation into the
// logical algebra, and code generation into an iterator plan whose
// subscripts are programs of a small virtual machine. Engine options select
// between the canonical translation of section 3 and the improved
// translation of section 4, individually toggleable for ablation studies.
package natix

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"time"

	"natix/internal/algebra"
	"natix/internal/codegen"
	"natix/internal/dom"
	"natix/internal/guard"
	"natix/internal/metrics"
	"natix/internal/physical"
	"natix/internal/sem"
	"natix/internal/translate"
	"natix/internal/xfn"
	"natix/internal/xpath"
	"natix/internal/xval"
)

// Version identifies the engine build; serving processes report it on
// GET /buildinfo so cluster operators can verify shard homogeneity.
const Version = "0.9.0"

// Engine-level metrics, registered on the process-wide default registry.
// Collection is gated by metrics.Enabled(), so ordinary runs pay one atomic
// load per compile/run and nothing per tuple.
var (
	mCompiles       = metrics.Default.Counter("natix_compiles_total", "queries compiled")
	mCompileErrors  = metrics.Default.Counter("natix_compile_errors_total", "compilations rejected")
	mCompileSeconds = metrics.Default.Histogram("natix_compile_seconds", "compilation latency")
	mRuns           = metrics.Default.Counter("natix_runs_total", "query executions")
	mRunErrors      = metrics.Default.Counter("natix_run_errors_total", "query executions that failed")
	mRunSeconds     = metrics.Default.Histogram("natix_run_seconds", "execution latency")
	mTuples         = metrics.Default.Counter("natix_tuples_total", "tuples produced by scans and unnest-maps")
	mAxisSteps      = metrics.Default.Counter("natix_axis_steps_total", "nodes enumerated by axis traversals")
	mDupDropped     = metrics.Default.Counter("natix_dup_dropped_total", "tuples removed by duplicate eliminations")
	mMemoHits       = metrics.Default.Counter("natix_memo_hits_total", "MemoX evaluations answered from cache")
	mMemoMisses     = metrics.Default.Counter("natix_memo_misses_total", "MemoX evaluations computed")
)

// Node is a handle to a document node.
type Node = dom.Node

// Value is an XPath 1.0 value: node-set, boolean, number or string.
type Value = xval.Value

// Stats are engine counters gathered during one execution.
type Stats = physical.Stats

// Document is the navigational interface all evaluation runs against.
type Document = dom.Document

// Limits bounds resource consumption of each execution of a query. The zero
// value is unlimited in every dimension.
type Limits = guard.Limits

// LimitError is returned from Run/RunContext when an execution exceeds one
// of its Limits budgets; test with errors.As.
type LimitError = guard.LimitError

// InternalError is returned from Run/RunContext when the engine panics: a
// defect in the engine, never a property of the input. The original query
// and the panic's stack trace are attached for bug reports.
type InternalError struct {
	// Expr is the source expression of the query that crashed.
	Expr string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error.
func (e *InternalError) Error() string {
	return fmt.Sprintf("natix: internal error running %q: %v", e.Expr, e.Value)
}

// TranslationMode selects the translation strategy.
type TranslationMode int

// Translation modes.
const (
	// Improved is the paper's section 4 translation: stacked outer paths,
	// pushed duplicate elimination, memoized inner paths, reordered
	// predicates. The default.
	Improved TranslationMode = iota
	// Canonical is the section 3 translation: d-join chains with a single
	// final duplicate elimination.
	Canonical
)

// Options configure compilation.
type Options struct {
	// Mode picks the base translation strategy (default Improved).
	Mode TranslationMode
	// Namespaces maps prefixes used in the expression to namespace URIs.
	Namespaces map[string]string
	// Vars, when non-nil, restricts referencable variables at compile time.
	Vars map[string]struct{}

	// Limits bounds every execution of the compiled query (RunContext
	// accepts no per-run override; compile twice for different budgets).
	// Zero fields are unlimited.
	Limits Limits

	// The remaining flags override single features of the Improved mode
	// for ablation studies; they are ignored under Canonical.
	DisableDupElimPush bool // section 4.1
	DisableStacked     bool // section 4.2.1
	DisableMemoX       bool // section 4.2.2
	DisablePredReorder bool // section 4.3.2
	// DisableSmartAggregation turns off the premature termination of
	// aggregates (section 5.2.5); it applies in every mode.
	DisableSmartAggregation bool

	// DisablePathRewrite turns off the structural path rewrites (merging
	// the // abbreviation's descendant-or-self step into a following
	// child/descendant step, dropping trivial self steps) that the paper
	// lists as future work (section 7). Rewrites are never applied in
	// Canonical mode.
	DisablePathRewrite bool

	// EnableNameIndex replaces root-anchored descendant steps with
	// element-name index scans (the "indexes" future-work item of paper
	// section 7). The index is built lazily per document and cached on
	// the compiled query.
	EnableNameIndex bool

	// EnablePathIndex turns on cost-based access-path selection against the
	// structural path index (internal/pathindex): root-anchored chains of
	// child/descendant steps whose path-summary match is provably
	// order-exact are answered by an O(matches) PathIndexScan when the
	// summary's cardinality estimate beats the axis-walk cost. The index is
	// persisted in store files and built (then cached) on first use for
	// in-memory documents; plans compiled with this flag run unchanged —
	// and fall back to navigation — on documents without an index.
	EnablePathIndex bool

	// EnableSequenceAnalysis turns on the sequence-level order/duplicate
	// analysis the paper defers to future work ([13]): statically derived
	// sequence properties replace the per-axis ppd rule, dropping
	// provably unnecessary duplicate eliminations and sorts. Applies to
	// the Improved mode only.
	EnableSequenceAnalysis bool

	// Batch sets the node-column batch size of the batched execution
	// protocol: the hot axis/dup-elim pipeline of a plan moves fixed-size
	// node buffers instead of single tuples, amortizing iterator dispatch
	// and governor polling. 0 means the default size
	// (physical.DefaultBatchSize, 256); BatchOff disables batching and
	// runs the plan tuple-at-a-time; any positive value is an explicit
	// size (1 is a valid, adversarial choice for testing). Results are
	// identical in every mode.
	Batch int
}

// BatchOff disables the batched execution protocol when assigned to
// Options.Batch.
const BatchOff = -1

// batchSizeFor maps the Options.Batch encoding to a plan batch size.
func batchSizeFor(b int) int {
	switch {
	case b < 0:
		return 0
	case b == 0:
		return physical.DefaultBatchSize
	default:
		return b
	}
}

func (o *Options) translateOptions() translate.Options {
	if o.Mode == Canonical {
		return translate.Canonical()
	}
	t := translate.Improved()
	if o.DisableDupElimPush {
		t.PushDupElim = false
	}
	if o.DisableStacked {
		t.Stacked = false
	}
	if o.DisableMemoX {
		t.MemoX = false
	}
	if o.DisablePredReorder {
		t.PredReorder = false
	}
	t.SeqProps = o.EnableSequenceAnalysis
	t.IndexScan = o.EnableNameIndex
	return t
}

// Prepared is a compiled XPath expression: the reusable product of the full
// compilation pipeline (parse, normalize, analyze, translate, codegen). A
// Prepared is immutable after Compile returns and safe for any number of
// concurrent Run/RunContext calls — every execution gets its own register
// file, NVM machine, iterator tree and governor, so the only state shared
// between two simultaneous runs is read-only (the plan, its subscript
// programs) or internally synchronized (the lazily built ID/name index
// caches). Compiling once and running many times amortizes the whole
// pipeline, which is the expensive part of short queries; internal/plancache
// builds an LRU of Prepared plans on top of this contract.
//
// Concurrency caveat: the safety statement covers the plan, not the
// document. In-memory documents (ParseDocument) are immutable and support
// concurrent readers; a store-backed *store.Doc is single-threaded — use one
// handle per goroutine (internal/catalog pools them).
type Prepared struct {
	source string
	root   sem.Expr
	trans  *translate.Result
	plan   *codegen.Plan
	limits Limits
}

// Query is the compiled-expression type's historical name.
type Query = Prepared

// Compile compiles an XPath 1.0 expression with default options.
func Compile(expr string) (*Prepared, error) {
	return CompileWith(expr, Options{})
}

// Prepare compiles an XPath 1.0 expression into a reusable Prepared plan.
// It is CompileWith under the name the serving layers use: compile once,
// Run concurrently and repeatedly.
func Prepare(expr string, opt Options) (*Prepared, error) {
	return CompileWith(expr, opt)
}

// CompileWith compiles an XPath 1.0 expression through the full pipeline of
// paper section 5.1.
func CompileWith(expr string, opt Options) (*Prepared, error) {
	if !metrics.Enabled() {
		return compileWith(expr, opt)
	}
	start := time.Now()
	q, err := compileWith(expr, opt)
	mCompiles.Inc()
	mCompileSeconds.ObserveDuration(time.Since(start))
	if err != nil {
		mCompileErrors.Inc()
	}
	return q, err
}

func compileWith(expr string, opt Options) (*Prepared, error) {
	ast, err := xpath.Parse(expr)
	if err != nil {
		return nil, err
	}
	root, err := sem.Analyze(ast, &sem.Env{Namespaces: opt.Namespaces, Vars: opt.Vars})
	if err != nil {
		return nil, err
	}
	if opt.Mode == Improved && !opt.DisablePathRewrite {
		root = sem.RewritePaths(root)
	}
	trans, err := translate.Translate(root, opt.translateOptions())
	if err != nil {
		return nil, fmt.Errorf("compile %q: %w", expr, err)
	}
	plan, err := codegen.Compile(trans)
	if err != nil {
		return nil, fmt.Errorf("compile %q: %w", expr, err)
	}
	plan.DisableSmartAgg = opt.DisableSmartAggregation
	if plan.BatchSize > 0 {
		plan.BatchSize = batchSizeFor(opt.Batch)
	}
	if opt.EnablePathIndex {
		plan.MarkPathIndex()
	}
	return &Prepared{source: expr, root: root, trans: trans, plan: plan, limits: opt.Limits}, nil
}

// MustCompile compiles or panics; for static query tables.
func MustCompile(expr string) *Prepared {
	q, err := Compile(expr)
	if err != nil {
		panic(err)
	}
	return q
}

// MustCompileWith compiles with explicit options or panics; for static
// query tables.
func MustCompileWith(expr string, opt Options) *Prepared {
	q, err := CompileWith(expr, opt)
	if err != nil {
		panic(err)
	}
	return q
}

// String returns the source expression.
func (q *Prepared) String() string { return q.source }

// CostBytes estimates the resident size of the compiled plan: registers,
// subscript programs, operator tree. The estimate is coarse by design — the
// same philosophy as the governor's materialization accounting — and exists
// so a plan cache can enforce a byte budget without reflection walks.
func (q *Prepared) CostBytes() int64 {
	return int64(len(q.source)) + q.plan.SizeEstimate()
}

// Result is the outcome of one execution.
type Result struct {
	// Value is the query result. Node-sets are returned in the order the
	// plan produced them, which is not necessarily document order (paper
	// section 2.1); use SortedNodeSet for document order.
	Value Value
	// Stats are the engine counters of this run.
	Stats Stats
}

// SortedNodeSet returns the result node-set in document order. For
// non-node-set results (booleans, numbers, strings) it returns (nil, false)
// instead of panicking, so callers can branch without testing
// Value.IsNodeSet first. An empty node-set result returns (nil, true).
func (r *Result) SortedNodeSet() ([]Node, bool) {
	if !r.Value.IsNodeSet() {
		return nil, false
	}
	nodes := append([]Node(nil), r.Value.Nodes...)
	sortNodes(nodes)
	return nodes, true
}

// Run evaluates the query with ctx as context node and the given variable
// bindings. It is RunContext without a cancellation context.
func (q *Prepared) Run(ctx Node, vars map[string]Value) (*Result, error) {
	return q.RunContext(context.Background(), ctx, vars)
}

// RunContext evaluates the query with node as context node under a
// cancellation context. Cancellation and deadline expiry surface as
// context.Canceled / context.DeadlineExceeded (via errors.Is); exhausted
// Options.Limits budgets as a *LimitError; document corruption and I/O
// failures as the store's error. In every case all iterators are closed and
// buffer pages unpinned before the call returns.
//
// The execution boundary is panic-safe: an engine panic is recovered and
// returned as a *InternalError rather than crashing the process.
func (q *Prepared) RunContext(stdctx context.Context, node Node, vars map[string]Value) (res *Result, err error) {
	var start time.Time
	if metrics.Enabled() {
		start = time.Now()
		defer func() {
			mRuns.Inc()
			mRunSeconds.ObserveDuration(time.Since(start))
			if err != nil {
				mRunErrors.Inc()
			} else {
				st := res.Stats
				mTuples.Add(st.Tuples)
				mAxisSteps.Add(st.AxisSteps)
				mDupDropped.Add(st.DupDropped)
				mMemoHits.Add(st.MemoHits)
				mMemoMisses.Add(st.MemoMisses)
			}
		}()
	}
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = &InternalError{Expr: q.source, Value: r, Stack: debug.Stack()}
		}
	}()
	pres, perr := q.plan.RunContext(stdctx, q.limits, node, vars)
	if perr != nil {
		return nil, fmt.Errorf("run %q: %w", q.source, perr)
	}
	return &Result{Value: pres.Value, Stats: pres.Stats}, nil
}

// Analysis is the outcome of one instrumented execution (ExplainAnalyze):
// the ordinary result plus the annotated plan.
type Analysis struct {
	// Result is the run's result, identical in contract to RunContext's.
	Result *Result
	// Tree is the rendered operator tree annotated with per-operator
	// tuple counts, open counts, cumulative/self wall time and net
	// materialized bytes, and per-subscript-program run counts, executed
	// NVM instructions and time.
	Tree string
}

// ExplainAnalyze runs the query under full per-operator instrumentation and
// returns the result together with the annotated plan tree — the profiled
// counterpart of ExplainPhysical. The run obeys the same cancellation,
// limit and panic-safety contract as RunContext; expect a few percent of
// timer overhead, which ordinary runs never pay.
func (q *Prepared) ExplainAnalyze(stdctx context.Context, node Node, vars map[string]Value) (a *Analysis, err error) {
	defer func() {
		if r := recover(); r != nil {
			a = nil
			err = &InternalError{Expr: q.source, Value: r, Stack: debug.Stack()}
		}
	}()
	pres, tree, perr := q.plan.ExplainAnalyze(stdctx, q.limits, node, vars)
	if perr != nil {
		return nil, fmt.Errorf("analyze %q: %w", q.source, perr)
	}
	return &Analysis{
		Result: &Result{Value: pres.Value, Stats: pres.Stats},
		Tree:   tree,
	}, nil
}

// ExplainAlgebra renders the translated logical algebra expression.
func (q *Prepared) ExplainAlgebra() string { return q.plan.Explain() }

// ExplainIR renders the normalized intermediate representation.
func (q *Prepared) ExplainIR() string { return q.root.String() }

// ExplainPhysical renders the generated physical plan: register
// assignments, iterators, and the NVM disassembly of every subscript
// program (the "execution plan in the NQE syntax" of paper section 5.1).
func (q *Prepared) ExplainPhysical() string { return q.plan.ExplainPhysical() }

// Algebra exposes the logical plan for tooling (nil for scalar queries).
func (q *Prepared) Algebra() algebra.Op { return q.trans.Plan }

// DOT renders the logical plan as a Graphviz digraph (the paper's query
// tree style, Figs. 2-4). Empty for scalar queries without a top-level
// sequence plan.
func (q *Prepared) DOT() string {
	if q.trans.Plan == nil {
		return ""
	}
	return algebra.DOT(q.trans.Plan)
}

// ParseDocument parses an XML document into the in-memory model.
func ParseDocument(r io.Reader) (*dom.MemDoc, error) { return dom.Parse(r) }

// ParseDocumentString parses an XML document held in a string.
func ParseDocumentString(s string) (*dom.MemDoc, error) { return dom.ParseString(s) }

// RootNode returns the document-node handle of a document.
func RootNode(d Document) Node { return Node{Doc: d, ID: d.Root()} }

// Number builds a number value for variable bindings.
func Number(f float64) Value { return xval.Num(f) }

// String builds a string value for variable bindings.
func String(s string) Value { return xval.Str(s) }

// Boolean builds a boolean value for variable bindings.
func Boolean(b bool) Value { return xval.Bool(b) }

// NodeSet builds a node-set value for variable bindings (e.g. from a prior
// query result).
func NodeSet(nodes []Node) Value { return xval.NodeSet(nodes) }

func sortNodes(nodes []Node) { xfn.SortDocOrder(nodes) }
