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

	"natix/internal/dom"
	"natix/internal/nvm"
)

// DefaultBatchSize is the node-column batch size of every execution that
// sets no explicit size. 256 nodes keep a batch within a few cache lines'
// worth of pointers while amortizing the per-tuple protocol overhead by two
// orders of magnitude.
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

// batchLen returns the buffer length of this execution's batches.
func (ex *Exec) batchLen() int {
	if ex.BatchSize > 0 {
		return ex.BatchSize
	}
	return DefaultBatchSize
}

// Batched implements BatchIter. Every operator's Batched guards against a
// nil Exec — hand-built plans may probe the protocol before any execution
// state exists, and must get "scalar" back, not a panic.
func (s *VarScan) Batched() bool { return s.Batch && s.Ex != nil }

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
func (u *UnnestMap) Batched() bool { return u.Batch && u.Ex != nil }

// NextBatch implements BatchIter: the batched axis loop. Context nodes
// arrive a batch at a time from the input column; each is enumerated
// through the pooled stepper in NodeID batches, filtered by the node test,
// and the matches accumulate in out. Governor and Stats accounting is
// flushed once per output batch instead of once per node.
func (u *UnnestMap) NextBatch(out []dom.Node) (int, error) {
	n := 0
	var steps int64
	for n < len(out) {
		if u.active && u.Window.Active() {
			// A windowed walk steps one node at a time, so that it stops
			// exactly where the scalar loop does.
			id, ok := u.stepper.Next()
			if !ok {
				u.active = false
				continue
			}
			steps++
			if u.Test.Matches(u.curDoc, id, u.principal) && u.admit() {
				out[n] = dom.Node{Doc: u.curDoc, ID: id}
				n++
			}
			continue
		}
		if u.active {
			room := len(out) - n
			if room > len(u.ids) {
				room = len(u.ids)
			}
			k := u.stepper.NextBatch(u.ids[:room])
			if u.Visited {
				if err := u.settle(); err != nil {
					return 0, err
				}
			}
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
		u.reset(ctx)
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
func (s *Select) Batched() bool { return s.Batch && s.Ex != nil }

// NextBatch implements BatchIter. The predicate program reads only the
// node column (the code generator verified that), so the column value is
// staged into its register per candidate and the program runs unchanged.
func (s *Select) NextBatch(out []dom.Node) (int, error) {
	regs := s.Ex.M.Regs
	in := s.buf[:min(len(s.buf), len(out))] // every kept node must fit out
	for {
		k, err := s.bin.NextBatch(in)
		if err != nil {
			return 0, err
		}
		if k == 0 {
			return 0, nil
		}
		n := 0
		for i := 0; i < k; i++ {
			regs[s.Col] = nvm.NodeVal(in[i])
			keep, err := s.Ex.M.RunBool(s.Prog)
			if err != nil {
				return 0, err
			}
			if keep {
				out[n] = in[i]
				n++
			}
		}
		if n > 0 {
			return n, nil
		}
	}
}

// Batched implements BatchIter.
func (d *DupElim) Batched() bool { return d.Batch && d.Ex != nil }

// NextBatch implements BatchIter: each node of a batch is marked in its
// document's set, and the budget is charged once per batch.
func (d *DupElim) NextBatch(out []dom.Node) (int, error) {
	in := d.buf[:min(len(d.buf), len(out))] // every kept node must fit out
	for {
		k, err := d.bin.NextBatch(in)
		if err != nil || k == 0 {
			return 0, err
		}
		n := 0
		for _, nd := range in[:k] {
			if d.seen.add(nd) {
				out[n] = nd
				n++
			}
		}
		d.Ex.Stats.DupDropped += int64(k - n)
		if err := d.seen.charge(d.Ex.Gov); err != nil {
			return 0, err
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
func (c *Concat) Batched() bool { return c.Batch && c.Ex != nil }

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
func (s *SortIter) Batched() bool { return s.Batch && s.Ex != nil }

// openBatched materializes only the node column — downstream provably reads
// nothing else — into a column borrowed from the run's scratch, and sorts
// it in place in document order. The column goes back at Close, or here
// on failure: error handling mirrors the scalar Open (self-cleaning).
func (s *SortIter) openBatched() (err error) {
	s.putColumn() // re-opened without a Close
	s.nodes, s.held = s.Ex.GetColumn(), true
	defer func() {
		if err != nil {
			s.putColumn()
		}
	}()
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

// putColumn returns the column the batched variant holds, if any.
func (s *SortIter) putColumn() {
	if s.held {
		s.Ex.PutColumn(s.nodes)
		s.nodes, s.held = nil, false
	}
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
