package physical

import (
	"sync"
	"sync/atomic"

	"natix/internal/dom"
)

// runScratch is the scratch memory of one run: the free lists its operators
// borrow batch buffers, NodeID buffers and axis steppers from, and the node
// columns the result drain and batched sorts gather into. Within a run the
// lists recycle the allocations of operators that re-open under d-joins,
// memoized subtrees and unions; across runs scratchPool recycles the whole
// scratch, so a warm run of a cached plan allocates little beyond what it
// returns. A run uses its scratch from one goroutine only, so the lists take
// no lock.
type runScratch struct {
	nodeBufs [][]dom.Node
	// cleanBufs counts the entries at the bottom of nodeBufs that no Get
	// has handed out since they were last cleared: only the ones above it
	// need clearing when the scratch goes back to the pool.
	cleanBufs int
	idBufs    [][]dom.NodeID
	steppers  [dom.AxisCount][]*dom.Stepper
	cols      [][]dom.Node
}

// scratchPool holds the idle scratches of the process. It is one
// package-level pool, registered with the runtime once, and it pools the
// *runScratch itself: a pointer goes into a Put without boxing, where a
// slice would allocate its header on every Put. Two GCs empty it, so idle
// scratch never shows in the live heap for long.
var scratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// What a scratch keeps when it goes back to the pool: at most maxKeptBufs
// entries per free list, and no column longer than maxKeptCol nodes, so one
// huge result does not stay pinned in the pool until the next GC.
const (
	maxKeptBufs = 64
	maxKeptCol  = 1 << 16
)

// TakeScratch gives the execution a scratch from the process-wide pool. The
// run that calls it must call ReturnScratch when it ends, on every path.
// Batch buffers are kept across runs at DefaultBatchSize only: a run with
// any other batch size starts from empty buffer lists, exactly as if it had
// no pool behind it.
func (ex *Exec) TakeScratch() {
	if poolAudit.enabled.Load() {
		poolAudit.takes.Add(1)
	}
	sc := scratchPool.Get().(*runScratch)
	if ex.batchLen() != DefaultBatchSize {
		sc.nodeBufs = trimList(sc.nodeBufs, 0)
		sc.cleanBufs = 0
		sc.idBufs = trimList(sc.idBufs, 0)
	}
	ex.sc = sc
}

// ReturnScratch clears the execution's scratch and puts it back in the
// pool. Node buffers and columns hold Document interfaces and steppers hold
// a document and a visited set, so all of them are cleared first: a pooled
// scratch pins no document. Calling it again, or on an execution that never
// took a scratch, does nothing.
func (ex *Exec) ReturnScratch() {
	sc := ex.sc
	if sc == nil {
		return
	}
	ex.sc = nil
	if poolAudit.enabled.Load() {
		poolAudit.returns.Add(1)
	}
	keep := maxKeptBufs
	if ex.batchLen() != DefaultBatchSize {
		keep = 0
	}
	sc.nodeBufs = trimList(sc.nodeBufs, keep)
	sc.cleanBufs = min(sc.cleanBufs, len(sc.nodeBufs))
	for _, b := range sc.nodeBufs[sc.cleanBufs:] {
		clear(b)
	}
	sc.cleanBufs = len(sc.nodeBufs)
	sc.idBufs = trimList(sc.idBufs, keep)
	for a := range sc.steppers {
		sc.steppers[a] = trimList(sc.steppers[a], maxKeptBufs)
		for _, s := range sc.steppers[a] {
			s.Detach()
		}
	}
	// Columns were cleared by PutColumn.
	cols := sc.cols[:0]
	for _, c := range sc.cols {
		if cap(c) <= maxKeptCol && len(cols) < maxKeptBufs {
			cols = append(cols, c)
		}
	}
	sc.cols = trimList(cols, len(cols))
	scratchPool.Put(sc)
}

// trimList cuts a free list to at most n entries and clears every slot
// beyond them, so the list's backing array references only what it keeps.
func trimList[T any](list []T, n int) []T {
	if len(list) > n {
		list = list[:n]
	}
	clear(list[len(list):cap(list)])
	return list
}

// scratch returns the execution's scratch. A hand-built Exec that never
// took one gets a private scratch that no pool sees.
func (ex *Exec) scratch() *runScratch {
	if ex.sc == nil {
		ex.sc = new(runScratch)
	}
	return ex.sc
}

// poolAudit counts every free-list Get and Put, and every scratch take and
// return, while enabled. The leak harness turns it on around a run and
// asserts the totals balance, catching error and early-Close paths that
// strand a pooled buffer, return one twice, or leave a scratch out of the
// pool.
// Atomics, because concurrent runs on other goroutines share the counters;
// a disabled audit costs one atomic load per call, paid only in builds
// that run the harness (the flag is never set in production).
var poolAudit struct {
	enabled        atomic.Bool
	gets, puts     atomic.Int64
	takes, returns atomic.Int64
}

// PoolAudit is the traffic an audit window saw: free-list Gets and Puts
// (buffers, steppers and columns) and scratch Takes and Returns.
type PoolAudit struct {
	Gets, Puts     int64
	Takes, Returns int64
}

// PoolAuditStart resets the pool counters and enables counting. Test
// harnesses only; not safe to overlap with another audited run.
func PoolAuditStart() {
	poolAudit.gets.Store(0)
	poolAudit.puts.Store(0)
	poolAudit.takes.Store(0)
	poolAudit.returns.Store(0)
	poolAudit.enabled.Store(true)
}

// PoolAuditStop disables counting and returns the totals observed since
// PoolAuditStart. Gets equal to Puts mean every pooled buffer, stepper and
// column taken during the window was returned exactly once; Takes equal to
// Returns mean every run gave its scratch back.
func PoolAuditStop() PoolAudit {
	poolAudit.enabled.Store(false)
	return PoolAudit{
		Gets: poolAudit.gets.Load(), Puts: poolAudit.puts.Load(),
		Takes: poolAudit.takes.Load(), Returns: poolAudit.returns.Load(),
	}
}

// countGet and countPut record one free-list Get or Put for the audit.
func countGet() {
	if poolAudit.enabled.Load() {
		poolAudit.gets.Add(1)
	}
}

func countPut() {
	if poolAudit.enabled.Load() {
		poolAudit.puts.Add(1)
	}
}

// take pops the most recently returned entry of a free list.
func take[T any](list *[]T) (v T, ok bool) {
	if n := len(*list); n > 0 {
		v, ok = (*list)[n-1], true
		*list = (*list)[:n-1]
	}
	return v, ok
}

// GetNodeBuf returns a batch-sized node buffer from the execution's free
// list.
func (ex *Exec) GetNodeBuf() []dom.Node {
	countGet()
	sc := ex.scratch()
	if b, ok := take(&sc.nodeBufs); ok {
		sc.cleanBufs = min(sc.cleanBufs, len(sc.nodeBufs))
		return b
	}
	return make([]dom.Node, ex.batchLen())
}

// PutNodeBuf returns a buffer obtained from GetNodeBuf to the free list.
func (ex *Exec) PutNodeBuf(b []dom.Node) {
	countPut()
	if len(b) == ex.batchLen() {
		sc := ex.scratch()
		sc.nodeBufs = append(sc.nodeBufs, b)
	}
}

// GetIDBuf returns a batch-sized NodeID scratch buffer from the free list.
func (ex *Exec) GetIDBuf() []dom.NodeID {
	countGet()
	if b, ok := take(&ex.scratch().idBufs); ok {
		return b
	}
	return make([]dom.NodeID, ex.batchLen())
}

// PutIDBuf returns a buffer obtained from GetIDBuf to the free list.
func (ex *Exec) PutIDBuf(b []dom.NodeID) {
	countPut()
	if len(b) == ex.batchLen() {
		sc := ex.scratch()
		sc.idBufs = append(sc.idBufs, b)
	}
}

// GetStepper returns an axis stepper from the execution's per-axis free
// list.
func (ex *Exec) GetStepper(a dom.Axis) *dom.Stepper {
	countGet()
	if s, ok := take(&ex.scratch().steppers[a]); ok {
		return s
	}
	return dom.NewStepper(a)
}

// PutStepper returns a stepper obtained from GetStepper to its free list.
func (ex *Exec) PutStepper(s *dom.Stepper) {
	countPut()
	sc := ex.scratch()
	a := s.Axis()
	sc.steppers[a] = append(sc.steppers[a], s)
}

// GetColumn returns an empty node column to gather into: its capacity is
// whatever an earlier gather of this run or of an earlier run grew it to,
// and nil when the free list is empty.
func (ex *Exec) GetColumn() []dom.Node {
	countGet()
	c, _ := take(&ex.scratch().cols)
	return c
}

// PutColumn clears a column obtained from GetColumn (and possibly grown by
// append) and returns it to the free list. Only the column's length is
// cleared, so a gatherer must never shorten a column it wrote: every slot
// beyond the length of a listed column is already zero.
func (ex *Exec) PutColumn(c []dom.Node) {
	countPut()
	if cap(c) == 0 {
		return
	}
	clear(c)
	sc := ex.scratch()
	sc.cols = append(sc.cols, c[:0])
}
