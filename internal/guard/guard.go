// Package guard implements the execution governor of the hardening layer:
// cooperative cancellation (context deadlines), resource budgets (tuples,
// materialized bytes, NVM steps), and store-fault propagation. One Governor
// exists per query execution and is shared by the physical iterators and
// the NVM machine, mirroring how the shared register file ties the two
// tiers together.
//
// The hot-path contract is: progress points call Event (or one of the
// budget-specific entry points, which fold an Event in). Event is one
// counter increment and one mask test; only every pollInterval-th event
// runs the slow checks (context poll, store-fault probe). Budget checks
// against the engine's existing counters are a single compare. All methods
// are nil-receiver safe so hand-built test plans run unguarded.
package guard

import (
	"context"
	"fmt"

	"natix/internal/metrics"
)

// Trip metrics. Every path below is cold — the sticky error means each fires
// at most once per execution — so they are gated only for symmetry with the
// hot-path instrumentation elsewhere.
var (
	mTripTuples    = metrics.Default.Counter("natix_guard_tuple_limit_trips_total", "Executions aborted by the tuple budget.")
	mTripBytes     = metrics.Default.Counter("natix_guard_byte_limit_trips_total", "Executions aborted by the materialized-byte budget.")
	mTripSteps     = metrics.Default.Counter("natix_guard_step_limit_trips_total", "Executions aborted by the NVM step budget.")
	mCancellations = metrics.Default.Counter("natix_guard_cancellations_total", "Executions aborted by context cancellation or deadline.")
	mStoreFaults   = metrics.Default.Counter("natix_guard_store_faults_total", "Executions aborted by a sticky store fault.")
)

// trip records the sticky abort error and counts it.
func (g *Governor) trip(err error) error {
	g.err = err
	if metrics.Enabled() {
		switch e := err.(type) {
		case *LimitError:
			switch e.Budget {
			case BudgetTuples:
				mTripTuples.Inc()
			case BudgetBytes:
				mTripBytes.Inc()
			case BudgetSteps:
				mTripSteps.Inc()
			}
		}
	}
	return err
}

// Budget names one resource budget of Limits, for LimitError reporting.
type Budget string

// The enforceable budgets.
const (
	// BudgetTuples is the bound on tuples produced by scans and
	// unnest-maps.
	BudgetTuples Budget = "tuples"
	// BudgetBytes is the bound on bytes materialized by the buffering
	// operators (Sort, Tmp, MemoX, the comparison joins and Γ).
	BudgetBytes Budget = "materialized bytes"
	// BudgetSteps is the bound on NVM instructions executed by subscript
	// programs.
	BudgetSteps Budget = "nvm steps"
)

// Limits bounds one query execution. Zero fields are unlimited.
type Limits struct {
	// MaxTuples caps tuples produced by unnest-maps and scans (the
	// engine's Stats.Tuples counter).
	MaxTuples int64
	// MaxBytes caps the (approximate) bytes materialized across all
	// buffering operators of the plan.
	MaxBytes int64
	// MaxSteps caps NVM instructions executed across all subscript
	// programs. Enforcement is per-program-run granular: a program's
	// instructions are charged when it finishes, so short overshoots by
	// one program length are possible.
	MaxSteps int64
}

// LimitError reports the budget a query execution exceeded.
type LimitError struct {
	// Budget names the tripped budget.
	Budget Budget
	// Limit is the configured bound.
	Limit int64
}

// Error implements error.
func (e *LimitError) Error() string {
	return fmt.Sprintf("query exceeded %s limit (%d)", e.Budget, e.Limit)
}

// pollInterval is the event mask between slow checks; a power of two so the
// hot path is an AND and a branch.
const pollInterval = 1024

// Governor carries the cancellation context and budget state of one query
// execution. The zero/nil Governor never trips.
type Governor struct {
	limits Limits
	ctx    context.Context
	// fault probes the backing store for a sticky I/O or corruption error
	// (store.Doc.Err); nil when the document cannot fault.
	fault func() error

	events uint32
	bytes  int64
	steps  int64
	err    error
}

// New builds a governor for one execution. ctx may be nil (background);
// fault may be nil.
func New(ctx context.Context, limits Limits, fault func() error) *Governor {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Governor{limits: limits, ctx: ctx, fault: fault}
}

// Err returns the sticky abort error, if any check has tripped.
func (g *Governor) Err() error {
	if g == nil {
		return nil
	}
	return g.err
}

// poll is the slow path: sticky error, context, then store fault.
func (g *Governor) poll() error {
	if g.err != nil {
		return g.err
	}
	if err := g.ctx.Err(); err != nil {
		g.err = err
		if metrics.Enabled() {
			mCancellations.Inc()
		}
		return err
	}
	if g.fault != nil {
		if err := g.fault(); err != nil {
			g.err = err
			if metrics.Enabled() {
				mStoreFaults.Inc()
			}
			return err
		}
	}
	return nil
}

// Check runs the slow checks unconditionally (used at execution boundaries,
// where latency matters more than cost).
func (g *Governor) Check() error {
	if g == nil {
		return nil
	}
	return g.poll()
}

// Event records one unit of engine progress (an axis step, a replayed
// tuple). Every pollInterval-th event runs the slow checks.
func (g *Governor) Event() error {
	if g == nil {
		return nil
	}
	g.events++
	if g.events&(pollInterval-1) != 0 {
		return nil
	}
	return g.poll()
}

// Events records n units of engine progress at once — the batched
// counterpart of Event. The slow checks run when the batch crosses a
// pollInterval boundary, so a batched execution polls with the same period
// as a scalar one (once per pollInterval events), not once per batch.
func (g *Governor) Events(n int64) error {
	if g == nil || n <= 0 {
		return nil
	}
	before := g.events
	g.events += uint32(n)
	if before/pollInterval == g.events/pollInterval && g.events >= before {
		return nil
	}
	return g.poll()
}

// Tuples enforces MaxTuples against the engine's produced-tuple counter and
// records one event.
func (g *Governor) Tuples(n int64) error {
	if g == nil {
		return nil
	}
	if g.limits.MaxTuples > 0 && n > g.limits.MaxTuples {
		return g.trip(&LimitError{Budget: BudgetTuples, Limit: g.limits.MaxTuples})
	}
	return g.Event()
}

// Grow charges n materialized bytes against MaxBytes.
func (g *Governor) Grow(n int64) error {
	if g == nil {
		return nil
	}
	g.bytes += n
	if g.limits.MaxBytes > 0 && g.bytes > g.limits.MaxBytes {
		return g.trip(&LimitError{Budget: BudgetBytes, Limit: g.limits.MaxBytes})
	}
	return nil
}

// Release returns n previously Grow-charged bytes to the budget (a
// materializing operator dropped or reused its buffer). The byte budget
// therefore tracks live materialization, not cumulative throughput.
func (g *Governor) Release(n int64) {
	if g == nil {
		return
	}
	g.bytes -= n
}

// Steps charges n executed NVM instructions against MaxSteps and records
// one event. Programs run as often as once per tuple, so this stays on the
// masked path; only the per-instruction counting is off it entirely.
func (g *Governor) Steps(n int64) error {
	if g == nil {
		return nil
	}
	g.steps += n
	if g.limits.MaxSteps > 0 && g.steps > g.limits.MaxSteps {
		return g.trip(&LimitError{Budget: BudgetSteps, Limit: g.limits.MaxSteps})
	}
	return g.Event()
}

// Bytes returns the materialized-byte estimate charged so far.
func (g *Governor) Bytes() int64 {
	if g == nil {
		return 0
	}
	return g.bytes
}

// NVMSteps returns the NVM instructions charged so far.
func (g *Governor) NVMSteps() int64 {
	if g == nil {
		return 0
	}
	return g.steps
}
