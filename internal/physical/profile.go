package physical

import (
	"time"

	"natix/internal/dom"
	"natix/internal/guard"
	"natix/internal/nvm"
)

// OpStat is the per-operator account of one instrumented execution. Times
// and bytes are subtree-cumulative (an operator's figure includes its
// inputs, exactly like the call tree of a profiler); renderers subtract the
// children's figures to show self cost.
type OpStat struct {
	// Opens counts Open calls (re-opens under a d-join count once each).
	Opens int64
	// Out counts tuples the operator produced (Next calls returning true).
	Out int64
	// Time is the wall time spent inside the operator's subtree across
	// Open, Next and Close.
	Time time.Duration
	// Bytes is the net governor-charged materialization attributed to the
	// subtree (positive charges minus releases observed during its calls).
	Bytes int64
}

// AccessPath records one access-path decision of an instrumented run: a
// step chain the path index could in principle answer, whether the
// PathIndexScan was chosen over axis navigation, and the cost figures the
// decision compared. The actual output cardinality is the slot's OpStat.Out
// (the scan replaces the chain under the same operator slot).
type AccessPath struct {
	// Pattern is the matched step chain ("descendant::a/child::b").
	Pattern string
	// Chosen reports whether the PathIndexScan replaced the chain.
	Chosen bool
	// Reason explains a fallback: "no-index" (document has no resolvable
	// index), "no-match" (the summary refused the chain), "cost" (the walk
	// estimate beat the index). Empty when chosen.
	Reason string
	// Est is the index's exact result cardinality; WalkEst the estimated
	// node enumerations of the axis walk. Both zero when no match exists.
	Est, WalkEst int64
}

// Profile collects the per-operator and per-program statistics of one
// instrumented execution (Query.ExplainAnalyze). A Profile belongs to a
// single run and is not safe for concurrent use.
type Profile struct {
	// Ops is indexed by the code generator's operator slots.
	Ops []OpStat
	// Progs is indexed by nvm.Program.ID.
	Progs []nvm.ProgStat
	// Access maps the operator slot of a path-index candidate chain's top
	// operator to its access-path decision. Nil until a candidate plan
	// instantiates.
	Access map[int]*AccessPath
}

// Instrumented wraps an iterator with per-operator accounting. The code
// generator inserts one per operator when an execution carries a Profile;
// uninstrumented runs never see it, keeping the hot path free of timer
// calls.
type Instrumented struct {
	It   Iter
	Stat *OpStat
	Gov  *guard.Governor
}

// Open implements Iter.
func (i *Instrumented) Open() error {
	i.Stat.Opens++
	b0 := i.Gov.Bytes()
	t0 := time.Now()
	err := i.It.Open()
	i.Stat.Time += time.Since(t0)
	i.Stat.Bytes += i.Gov.Bytes() - b0
	return err
}

// Next implements Iter.
func (i *Instrumented) Next() (bool, error) {
	b0 := i.Gov.Bytes()
	t0 := time.Now()
	ok, err := i.It.Next()
	i.Stat.Time += time.Since(t0)
	i.Stat.Bytes += i.Gov.Bytes() - b0
	if ok {
		i.Stat.Out++
	}
	return ok, err
}

// Batched implements BatchIter, so instrumentation never demotes a batched
// pipeline to scalar.
func (i *Instrumented) Batched() bool {
	bi, ok := i.It.(BatchIter)
	return ok && bi.Batched()
}

// NextBatch implements BatchIter with the same accounting as Next: every
// node of the batch counts as one produced tuple.
func (i *Instrumented) NextBatch(buf []dom.Node) (int, error) {
	bi := i.It.(BatchIter)
	b0 := i.Gov.Bytes()
	t0 := time.Now()
	n, err := bi.NextBatch(buf)
	i.Stat.Time += time.Since(t0)
	i.Stat.Bytes += i.Gov.Bytes() - b0
	i.Stat.Out += int64(n)
	return n, err
}

// Close implements Iter.
func (i *Instrumented) Close() error {
	b0 := i.Gov.Bytes()
	t0 := time.Now()
	err := i.It.Close()
	i.Stat.Time += time.Since(t0)
	i.Stat.Bytes += i.Gov.Bytes() - b0
	return err
}
