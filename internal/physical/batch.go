// Batched node-sequence execution for the NQE hot path. The scalar iterator
// protocol of physical.go pays an interface dispatch, a register write, a
// governor poll and Stats bookkeeping per node; the batched protocol of this
// file moves fixed-size node-column buffers through the hot chain instead —
// axis enumeration, node-test filtering, cheap selections, duplicate
// elimination, sort feeding and concatenation — and amortizes all of that
// per batch. The code generator marks the pipeline suffix whose operators
// provably communicate through a single node-valued column; everything
// below the first unmarked operator keeps running scalar and is bridged by
// a one-tuple adapter, so every existing Iter still composes.
package physical

import (
	"sort"
	"sync/atomic"

	"natix/internal/dom"
	"natix/internal/nvm"
)

// DefaultBatchSize is the node-column batch size used when an execution
// enables batching without an explicit size. 256 nodes keep a batch within
// a few cache lines' worth of pointers while amortizing the per-tuple
// protocol overhead by two orders of magnitude.
const DefaultBatchSize = 256

// batchNodeBytes is the byte-budget charge per node of a materialized node
// column (a dom.Node: one interface word pair plus the ID). The batched
// SortIter charges it instead of rowBytes because it materializes only the
// sort column, not full register snapshots.
const batchNodeBytes = 24

// BatchIter is the batched iterator protocol (defined next to the scalar
// Iterator in nvm so the machine tier can name it too).
type BatchIter = nvm.BatchIterator

// batchSource is the consumer-side view of a batched input: either a real
// BatchIter or the scalar adapter below.
type batchSource interface {
	NextBatch(buf []dom.Node) (int, error)
}

// batchInput returns the batched view of an input iterator: the iterator
// itself when it serves the batched protocol this run, otherwise a
// one-tuple adapter that drives the scalar protocol and gathers the node
// column from register col.
func batchInput(in Iter, ex *Exec, col int) batchSource {
	if bi, ok := in.(BatchIter); ok && bi.Batched() {
		return bi
	}
	return &scalarBatch{in: in, ex: ex, col: col}
}

// scalarBatch adapts a scalar iterator to the batched protocol: each
// NextBatch pulls up to len(buf) tuples through Next and copies the node in
// register col. Non-node register values (a scalar column can only reach a
// batched consumer through a code-generation bug; defensively) become nil
// nodes, which every batched consumer treats the way its scalar counterpart
// treats a non-node value.
type scalarBatch struct {
	in  Iter
	ex  *Exec
	col int
}

func (a *scalarBatch) NextBatch(buf []dom.Node) (int, error) {
	regs := a.ex.M.Regs
	n := 0
	for n < len(buf) {
		ok, err := a.in.Next()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		buf[n] = regs[a.col].Node()
		n++
	}
	return n, nil
}

// wrapBatched keeps the batched protocol visible through a WrapIter hook:
// Open/Next/Close flow through the wrapper (so leak harnesses observe the
// full scalar traffic), NextBatch goes straight to the wrapped operator.
type wrapBatched struct {
	Iter
	bi BatchIter
}

// Batched implements BatchIter.
func (w *wrapBatched) Batched() bool { return w.bi.Batched() }

// NextBatch implements BatchIter.
func (w *wrapBatched) NextBatch(buf []dom.Node) (int, error) { return w.bi.NextBatch(buf) }

// WrapBatched re-attaches the batched protocol of inner to a wrapper
// returned by a WrapIter hook. The code generator calls it so harness
// wrappers do not silently demote a batched pipeline to scalar.
func WrapBatched(wrapper Iter, inner BatchIter) Iter {
	return &wrapBatched{Iter: wrapper, bi: inner}
}

// nodeIdent is the typed duplicate-elimination key of the batched DupElim:
// the same identity as nvm.Val.Key() for nodes (document ID plus node ID),
// but comparable without boxing into an interface, so deduplicating a batch
// allocates nothing beyond the map itself.
type nodeIdent struct {
	doc uint64
	id  dom.NodeID
}

// batchLen returns the buffer length of this execution's batches.
func (ex *Exec) batchLen() int {
	if ex.BatchSize > 0 {
		return ex.BatchSize
	}
	return DefaultBatchSize
}

// poolAudit counts every free-list Get and Put while enabled. The leak
// harness turns it on around a run and asserts the totals balance, catching
// error and early-Close paths that strand a pooled buffer or return one
// twice.
// Atomics, because concurrent runs on other goroutines share the counters;
// a disabled audit costs one atomic load per call, paid only in builds
// that run the harness (the flag is never set in production).
var poolAudit struct {
	enabled atomic.Bool
	gets    atomic.Int64
	puts    atomic.Int64
}

// PoolAuditStart resets the pool Get/Put counters and enables counting.
// Test harnesses only; not safe to overlap with another audited run.
func PoolAuditStart() {
	poolAudit.gets.Store(0)
	poolAudit.puts.Store(0)
	poolAudit.enabled.Store(true)
}

// PoolAuditStop disables counting and returns the Get and Put totals
// observed since PoolAuditStart. Equal totals mean every pooled buffer and
// stepper taken during the audited window was returned exactly once.
func PoolAuditStop() (gets, puts int64) {
	poolAudit.enabled.Store(false)
	return poolAudit.gets.Load(), poolAudit.puts.Load()
}

// take pops the most recently returned entry of one of the Exec's free
// lists.
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
	if poolAudit.enabled.Load() {
		poolAudit.gets.Add(1)
	}
	if b, ok := take(&ex.nodeBufs); ok {
		return b
	}
	return make([]dom.Node, ex.batchLen())
}

// PutNodeBuf returns a buffer obtained from GetNodeBuf to the free list.
func (ex *Exec) PutNodeBuf(b []dom.Node) {
	if poolAudit.enabled.Load() {
		poolAudit.puts.Add(1)
	}
	if len(b) == ex.batchLen() {
		ex.nodeBufs = append(ex.nodeBufs, b)
	}
}

// GetIDBuf returns a batch-sized NodeID scratch buffer from the free list.
func (ex *Exec) GetIDBuf() []dom.NodeID {
	if poolAudit.enabled.Load() {
		poolAudit.gets.Add(1)
	}
	if b, ok := take(&ex.idBufs); ok {
		return b
	}
	return make([]dom.NodeID, ex.batchLen())
}

// PutIDBuf returns a buffer obtained from GetIDBuf to the free list.
func (ex *Exec) PutIDBuf(b []dom.NodeID) {
	if poolAudit.enabled.Load() {
		poolAudit.puts.Add(1)
	}
	if len(b) == ex.batchLen() {
		ex.idBufs = append(ex.idBufs, b)
	}
}

// GetStepper returns an axis stepper from the execution's per-axis free
// list.
func (ex *Exec) GetStepper(a dom.Axis) *dom.Stepper {
	if poolAudit.enabled.Load() {
		poolAudit.gets.Add(1)
	}
	if s, ok := take(&ex.steppers[a]); ok {
		return s
	}
	return dom.NewStepper(a)
}

// PutStepper returns a stepper obtained from GetStepper to its free list.
func (ex *Exec) PutStepper(s *dom.Stepper) {
	if poolAudit.enabled.Load() {
		poolAudit.puts.Add(1)
	}
	a := s.Axis()
	ex.steppers[a] = append(ex.steppers[a], s)
}

// Batched implements BatchIter. Every operator's Batched guards against a
// nil Exec — hand-built plans may probe the protocol before any execution
// state exists, and must get "scalar" back, not a panic.
func (s *VarScan) Batched() bool { return s.Batch && s.Ex != nil && s.Ex.BatchSize > 0 }

// NextBatch implements BatchIter.
func (s *VarScan) NextBatch(out []dom.Node) (int, error) {
	n := copy(out, s.nodes[s.idx:])
	s.idx += n
	if n > 0 {
		if err := s.Ex.Gov.Events(int64(n)); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// Batched implements BatchIter.
func (s *IndexScan) Batched() bool { return s.Batch && s.Ex != nil && s.Ex.BatchSize > 0 }

// NextBatch implements BatchIter.
func (s *IndexScan) NextBatch(out []dom.Node) (int, error) {
	doc := s.Ex.CtxDoc
	n := 0
	for n < len(out) && s.idx < len(s.ids) {
		out[n] = dom.Node{Doc: doc, ID: s.ids[s.idx]}
		n++
		s.idx++
	}
	if n > 0 {
		s.Ex.Stats.Tuples += int64(n)
		if err := s.Ex.Gov.Tuples(s.Ex.Stats.Tuples); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// Batched implements BatchIter.
func (u *UnnestMap) Batched() bool { return u.Batch && u.Ex != nil && u.Ex.BatchSize > 0 }

// NextBatch implements BatchIter: the batched axis loop. Context nodes
// arrive a batch at a time from the input column; each is enumerated
// through the pooled stepper in NodeID batches, filtered by the node test,
// and the matches accumulate in out. Governor and Stats accounting is
// flushed once per output batch instead of once per node.
func (u *UnnestMap) NextBatch(out []dom.Node) (int, error) {
	n := 0
	var steps int64
	for n < len(out) {
		if u.active {
			room := len(out) - n
			if room > len(u.ids) {
				room = len(u.ids)
			}
			k := u.stepper.NextBatch(u.ids[:room])
			if k == 0 {
				u.active = false
				continue
			}
			steps += int64(k)
			doc := u.curDoc
			for i := 0; i < k; i++ {
				if u.Test.Matches(doc, u.ids[i], u.principal) {
					out[n] = dom.Node{Doc: doc, ID: u.ids[i]}
					n++
				}
			}
			continue
		}
		if u.inPos >= u.inLen {
			k, err := u.bin.NextBatch(u.inBuf)
			if err != nil {
				return 0, err
			}
			if k == 0 {
				break
			}
			u.inPos, u.inLen = 0, k
		}
		ctx := u.inBuf[u.inPos]
		u.inPos++
		if ctx.IsNil() {
			continue // non-node context (e.g. empty deref): no output
		}
		u.stepper.Reset(ctx.Doc, ctx.ID)
		u.curDoc = ctx.Doc
		u.active = true
	}
	if steps > 0 {
		u.Ex.Stats.AxisSteps += steps
		// The cancellation point of the batched axis loop, polled with the
		// same period as the scalar Event path.
		if err := u.Ex.Gov.Events(steps); err != nil {
			return 0, err
		}
	}
	if n > 0 {
		u.Ex.Stats.Tuples += int64(n)
		if err := u.Ex.Gov.Tuples(u.Ex.Stats.Tuples); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// Batched implements BatchIter.
func (s *Select) Batched() bool { return s.Batch && s.Ex != nil && s.Ex.BatchSize > 0 }

// NextBatch implements BatchIter. The predicate program reads only the
// node column (the code generator verified that), so the column value is
// staged into its register per candidate and the program runs unchanged.
func (s *Select) NextBatch(out []dom.Node) (int, error) {
	regs := s.Ex.M.Regs
	for {
		k, err := s.bin.NextBatch(s.buf)
		if err != nil {
			return 0, err
		}
		if k == 0 {
			return 0, nil
		}
		n := 0
		for i := 0; i < k; i++ {
			regs[s.Col] = nvm.NodeVal(s.buf[i])
			keep, err := s.Ex.M.RunBool(s.Prog)
			if err != nil {
				return 0, err
			}
			if keep {
				out[n] = s.buf[i]
				n++
			}
		}
		if n > 0 {
			return n, nil
		}
	}
}

// Batched implements BatchIter.
func (d *DupElim) Batched() bool { return d.Batch && d.Ex != nil && d.Ex.BatchSize > 0 }

// NextBatch implements BatchIter. Keys are typed node identities, so the
// per-tuple interface boxing of the scalar path disappears; the DocID
// interface call is amortized through a one-entry cache (a batch almost
// always stays within one document).
func (d *DupElim) NextBatch(out []dom.Node) (int, error) {
	for {
		k, err := d.bin.NextBatch(d.buf)
		if err != nil {
			return 0, err
		}
		if k == 0 {
			return 0, nil
		}
		n := 0
		var added, dropped int64
		for i := 0; i < k; i++ {
			nd := d.buf[i]
			var key nodeIdent
			if !nd.IsNil() {
				if nd.Doc != d.lastDoc {
					d.lastDoc = nd.Doc
					d.lastDocID = nd.Doc.DocID()
				}
				key = nodeIdent{doc: d.lastDocID, id: nd.ID}
			}
			if _, dup := d.nseen[key]; dup {
				dropped++
				continue
			}
			d.nseen[key] = struct{}{}
			added++
			out[n] = nd
			n++
		}
		d.Ex.Stats.DupDropped += dropped
		if added > 0 {
			if err := d.Ex.Gov.Grow(keyBytes * added); err != nil {
				return 0, err
			}
			d.charged += keyBytes * added
		}
		if err := d.Ex.Gov.Events(int64(k)); err != nil {
			return 0, err
		}
		if n > 0 {
			return n, nil
		}
	}
}

// Batched implements BatchIter.
func (c *Concat) Batched() bool { return c.Batch && c.Ex != nil && c.Ex.BatchSize > 0 }

// NextBatch implements BatchIter: inputs in order, each viewed through
// batchInput so batch-capable branches stream natively and scalar branches
// go through the adapter.
func (c *Concat) NextBatch(out []dom.Node) (int, error) {
	for c.idx < len(c.Ins) {
		if !c.opened {
			if err := c.Ins[c.idx].Open(); err != nil {
				return 0, err
			}
			c.opened = true
			c.cur = batchInput(c.Ins[c.idx], c.Ex, c.Col)
		}
		k, err := c.cur.NextBatch(out)
		if err != nil {
			return 0, err
		}
		if k > 0 {
			return k, nil
		}
		if err := c.Ins[c.idx].Close(); err != nil {
			return 0, err
		}
		c.opened = false
		c.cur = nil
		c.idx++
	}
	return 0, nil
}

// Batched implements BatchIter.
func (s *SortIter) Batched() bool { return s.Batch && s.Ex != nil && s.Ex.BatchSize > 0 }

// openBatched materializes only the node column — downstream provably reads
// nothing else — and sorts it in document order. Error handling mirrors the
// scalar Open (self-cleaning on failure).
func (s *SortIter) openBatched() error {
	bin := batchInput(s.In, s.Ex, s.AttrReg)
	buf := s.Ex.GetNodeBuf()
	defer s.Ex.PutNodeBuf(buf)
	if err := s.In.Open(); err != nil {
		return err
	}
	for {
		k, err := bin.NextBatch(buf)
		if err != nil {
			s.In.Close()
			return err
		}
		if k == 0 {
			break
		}
		if err := s.Ex.Gov.Grow(int64(k) * batchNodeBytes); err != nil {
			s.In.Close()
			return err
		}
		s.charged += int64(k) * batchNodeBytes
		s.nodes = append(s.nodes, buf[:k]...)
	}
	if err := s.In.Close(); err != nil {
		return err
	}
	sort.SliceStable(s.nodes, func(i, j int) bool {
		return dom.CompareOrder(s.nodes[i], s.nodes[j]) < 0
	})
	s.Ex.Stats.Sorted += int64(len(s.nodes))
	return nil
}

// NextBatch implements BatchIter, draining the sorted column.
func (s *SortIter) NextBatch(out []dom.Node) (int, error) {
	n := copy(out, s.nodes[s.idx:])
	s.idx += n
	if n > 0 {
		if err := s.Ex.Gov.Events(int64(n)); err != nil {
			return 0, err
		}
	}
	return n, nil
}
