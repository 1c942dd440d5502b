// Package physical implements the Natix Query Execution Engine (NQE,
// paper section 5.2): iterator [9] implementations for every logical
// operator, operating on the shared register file of the virtual machine.
// Wherever possible intermediate results are pipelined; only Sort, Tmp^cs,
// MemoX and the comparison joins materialize, and then only the registers
// their own subtree binds.
package physical

import (
	"fmt"
	"sort"

	"natix/internal/dom"
	"natix/internal/guard"
	"natix/internal/nvm"
	"natix/internal/xfn"
)

// Iter is the open/next/close iterator protocol. Next leaves the produced
// tuple's attribute values in the machine registers.
type Iter = nvm.Iterator

// Stats counts engine events during one execution, for the benchmark
// harness and the ablation studies.
//
// A visited-set step (UnnestMap.Visited, a Π^D fused into the Υ below it)
// is counted as what it does: Tuples are its post-dedup output, every
// marked node its walk probes counts as one AxisSteps whether the walk
// stops there, steps over it or skips it, and DupDropped counts only the
// nodes a test-and-mark walk skips (dom.Stepper.ResetVisited).
type Stats struct {
	// AxisSteps counts nodes enumerated by unnest-map axis traversals
	// (before node tests).
	AxisSteps int64
	// Tuples counts tuples produced by unnest-maps (after node tests).
	Tuples int64
	// DupDropped counts tuples removed by duplicate eliminations.
	DupDropped int64
	// MemoHits/MemoMisses count MemoX evaluations answered from cache
	// versus computed.
	MemoHits   int64
	MemoMisses int64
	// Sorted counts tuples passing through sort operators.
	Sorted int64
}

// Exec is the shared execution state of one query run.
type Exec struct {
	M *nvm.Machine
	// CtxDoc is the document of the initial context node; id() and
	// path-index scans resolve against it.
	CtxDoc dom.Document
	Stats  Stats
	// Gov is the execution governor: cancellation, budgets, and store
	// faults. Nil (hand-built plans) means unguarded.
	Gov *guard.Governor
	// WrapIter, when set, wraps every iterator the generated plan
	// instantiates. It exists for leak-detection harnesses that count
	// Open/Close balance; production runs leave it nil.
	WrapIter func(Iter) Iter
	// Prof, when set, makes the generated plan wrap every iterator in an
	// Instrumented shim recording per-operator tuple counts, time and
	// bytes (ExplainAnalyze). Nil for production runs: the only cost of
	// the instrumentation being compiled in is one nil check per iterator
	// construction.
	Prof *Profile
	// BatchSize is the node-column batch size of this execution; 0 means
	// DefaultBatchSize. Operators the code generator marked batch-capable
	// always serve NextBatch; the size is a test override.
	BatchSize int

	// sc holds the free lists for batch buffers, axis steppers and node
	// columns (scratch.go): taken from the process-wide pool for one run by
	// TakeScratch, or private to a hand-built Exec.
	sc *runScratch
}

// Materialization cost estimates for the byte budget: a register snapshot
// costs a slice header plus valBytes per saved register, a key of
// ExistsJoin's value set keyBytes plus its string. The estimates are
// deliberately coarse (string payloads are charged where cheap to observe);
// the budget bounds runaway buffering, not exact accounting.
const (
	valBytes  = 96
	sliceOver = 24
	keyBytes  = 48
)

// rowBytes estimates the materialization cost of one n-register snapshot.
func rowBytes(n int) int64 { return sliceOver + int64(n)*valBytes }

// errIter reports a construction-time problem at Open.
type errIter struct{ err error }

func (e *errIter) Open() error         { return e.err }
func (e *errIter) Next() (bool, error) { return false, e.err }
func (e *errIter) Close() error        { return nil }

// NewErrIter returns an iterator that fails with err.
func NewErrIter(err error) Iter { return &errIter{err: err} }

// SingletonScan is □.
type SingletonScan struct {
	done bool
}

// Open implements Iter.
func (s *SingletonScan) Open() error { s.done = false; return nil }

// Next implements Iter.
func (s *SingletonScan) Next() (bool, error) {
	if s.done {
		return false, nil
	}
	s.done = true
	return true, nil
}

// Close implements Iter.
func (s *SingletonScan) Close() error { return nil }

// VarScan emits the nodes of a node-set variable.
type VarScan struct {
	Ex     *Exec
	Name   string
	OutReg int
	// Batch marks this instance batch-capable (set by the code generator).
	Batch bool

	nodes []dom.Node
	idx   int
}

// Open implements Iter.
func (s *VarScan) Open() error {
	v, ok := s.Ex.M.Vars[s.Name]
	if !ok {
		return fmt.Errorf("physical: unbound variable $%s", s.Name)
	}
	if !v.IsNodeSet() {
		return fmt.Errorf("physical: $%s is a %s, not a node-set", s.Name, v.Kind)
	}
	s.nodes, s.idx = v.Nodes, 0
	return nil
}

// Next implements Iter.
func (s *VarScan) Next() (bool, error) {
	if s.idx >= len(s.nodes) {
		return false, nil
	}
	if err := s.Ex.Gov.Event(); err != nil {
		return false, err
	}
	s.Ex.M.Regs[s.OutReg] = nvm.NodeVal(s.nodes[s.idx])
	s.idx++
	return true, nil
}

// Close implements Iter.
func (s *VarScan) Close() error { return nil }

// UnnestMap enumerates an axis from the node in InReg, writing matches to
// OutReg (Υ). With EpochReg >= 0 it also writes a counter that increments
// per input tuple, marking context boundaries for downstream position
// counting.
type UnnestMap struct {
	Ex       *Exec
	In       Iter
	InReg    int
	OutReg   int
	EpochReg int // -1 when unused
	Axis     dom.Axis
	Test     dom.NodeTest
	// Batch marks this instance batch-capable (set by the code generator).
	Batch bool
	// Visited makes this a visited-set step, Π^D[OutReg] fused in: walks
	// share one set per document from Open to Open, so each node is
	// emitted once per evaluation (dom.Stepper.ResetVisited). Set by the
	// code generator, never with an epoch register.
	Visited bool

	stepper   *dom.Stepper
	principal dom.NodeKind
	active    bool
	epoch     int64

	seen visitSets // a visited-set step's sets

	// Batched-protocol state: the input column buffer, its read cursor,
	// the axis NodeID scratch, and the document of the active context.
	bin          batchSource
	inBuf        []dom.Node
	inPos, inLen int
	ids          []dom.NodeID
	curDoc       dom.Document
}

// Open implements Iter. The stepper and batch buffers come from the Exec's
// per-execution free lists and return to them at Close, so re-opens under
// deep d-join nests recycle instead of reallocating.
func (u *UnnestMap) Open() error {
	if u.stepper == nil {
		u.stepper = u.Ex.GetStepper(u.Axis)
	}
	u.principal = u.Axis.Principal()
	u.active = false
	u.seen.reset(u.Ex.Gov)
	if u.Batched() {
		if u.inBuf == nil {
			u.inBuf = u.Ex.GetNodeBuf()
			u.ids = u.Ex.GetIDBuf()
		}
		u.bin = batchInput(u.In, u.Ex, u.InReg)
		u.inPos, u.inLen = 0, 0
	}
	if err := u.In.Open(); err != nil {
		// A failed Open is self-cleaning (no Close follows it), so the
		// pooled resources acquired above must go back here or they are
		// stranded for the rest of the execution.
		u.Ex.PutStepper(u.stepper)
		u.stepper = nil
		if u.inBuf != nil {
			u.Ex.PutNodeBuf(u.inBuf)
			u.inBuf = nil
			u.Ex.PutIDBuf(u.ids)
			u.ids = nil
		}
		u.bin = nil
		return err
	}
	return nil
}

// Next implements Iter.
func (u *UnnestMap) Next() (bool, error) {
	regs := u.Ex.M.Regs
	for {
		if !u.active {
			ok, err := u.In.Next()
			if err != nil || !ok {
				return false, err
			}
			n := regs[u.InReg].Node()
			if n.IsNil() {
				continue // non-node context (e.g. empty deref): no output
			}
			u.stepper.ResetVisited(n.Doc, n.ID, u.visitedFor(n.Doc))
			u.epoch++
			if u.EpochReg >= 0 {
				regs[u.EpochReg] = nvm.NumVal(float64(u.epoch))
			}
			u.active = true
		}
		for {
			id, ok := u.stepper.Next()
			if u.Visited {
				if err := u.settle(); err != nil {
					return false, err
				}
			}
			if !ok {
				u.active = false
				break
			}
			u.Ex.Stats.AxisSteps++
			// The cancellation point of the axis loop: this is the one
			// unbounded traversal of the engine (a non-matching node test
			// over a huge document produces no tuples downstream would
			// see), so the governor is consulted here even when nothing
			// is emitted. Event is a counter and a mask test.
			if err := u.Ex.Gov.Event(); err != nil {
				return false, err
			}
			n := regs[u.InReg].Node()
			if u.Test.Matches(n.Doc, id, u.principal) {
				regs[u.OutReg] = nvm.NodeVal(dom.Node{Doc: n.Doc, ID: id})
				if u.EpochReg >= 0 {
					// Rewrite on every tuple, not only on input advance: a
					// downstream materializer replay may have restored an
					// older epoch into the register between pulls.
					regs[u.EpochReg] = nvm.NumVal(float64(u.epoch))
				}
				u.Ex.Stats.Tuples++
				if err := u.Ex.Gov.Tuples(u.Ex.Stats.Tuples); err != nil {
					return false, err
				}
				return true, nil
			}
		}
	}
}

// visitedFor returns the visited set of doc for a visited-set step, nil
// for a plain one.
func (u *UnnestMap) visitedFor(doc dom.Document) *dom.Visited {
	if !u.Visited {
		return nil
	}
	return u.seen.of(doc)
}

// settle books what a visited-set walk did since the last call: the marked
// nodes it probed are axis steps (and governor events), its test-and-mark
// skips are dropped duplicates, and the set's growth is charged to the
// byte budget.
func (u *UnnestMap) settle() error {
	s := u.stepper
	pruned := s.Pruned
	u.Ex.Stats.AxisSteps += pruned
	u.Ex.Stats.DupDropped += s.Dropped
	s.Pruned, s.Dropped = 0, 0
	if err := u.seen.charge(u.Ex.Gov); err != nil {
		return err
	}
	return u.Ex.Gov.Events(pruned)
}

// visitSets is the duplicate-elimination state of a Π^D, fused into a
// visited-set step or run as DupElim: one dom.Visited per document (by
// DocID), emptied at Open and at Close, whose real bytes are charged to
// the byte budget in between.
type visitSets struct {
	sets    map[uint64]*dom.Visited
	vis     *dom.Visited // the set of doc
	doc     dom.Document
	owed    int64 // growth of sets left since the last charge
	charged int64
}

// reset empties every set and returns their charge to the budget, at Open
// and at Close.
func (s *visitSets) reset(g *guard.Governor) {
	g.Release(s.charged)
	s.charged, s.owed = 0, 0
	for _, v := range s.sets {
		v.Reset()
	}
}

// of returns the set of doc, made on its first use.
func (s *visitSets) of(doc dom.Document) *dom.Visited {
	if doc == s.doc {
		return s.vis
	}
	if s.vis != nil {
		s.owed += s.vis.Uncharged()
	}
	id := doc.DocID()
	v := s.sets[id]
	if v == nil {
		if s.sets == nil {
			s.sets = map[uint64]*dom.Visited{}
		}
		v = dom.NewVisited(doc)
		s.sets[id] = v
	}
	s.vis, s.doc = v, doc
	return v
}

// add marks n, reporting whether it was not marked yet.
func (s *visitSets) add(n dom.Node) bool {
	v := s.of(n.Doc)
	if v.Has(n.ID) {
		return false
	}
	v.Mark(n.ID)
	return true
}

// charge books the growth of every set since the last charge.
func (s *visitSets) charge(g *guard.Governor) error {
	b := s.owed
	s.owed = 0
	if s.vis != nil {
		b += s.vis.Uncharged()
	}
	if b == 0 {
		return nil
	}
	s.charged += b
	return g.Grow(b)
}

// Close implements Iter, returning the stepper and batch buffers to the
// execution's free lists and the visited sets' charge to the budget.
func (u *UnnestMap) Close() error {
	u.seen.reset(u.Ex.Gov)
	if u.stepper != nil {
		u.Ex.PutStepper(u.stepper)
		u.stepper = nil
	}
	if u.inBuf != nil {
		u.Ex.PutNodeBuf(u.inBuf)
		u.inBuf = nil
		u.Ex.PutIDBuf(u.ids)
		u.ids = nil
	}
	u.bin = nil
	return u.In.Close()
}

// Select filters by a boolean program (σ).
type Select struct {
	Ex   *Exec
	In   Iter
	Prog *nvm.Program
	// Batch marks this instance batch-capable; Col is the node column it
	// passes through (the only register its predicate reads). Both set by
	// the code generator.
	Batch bool
	Col   int

	bin batchSource
	buf []dom.Node
}

// Open implements Iter.
func (s *Select) Open() error {
	if s.Batched() {
		if s.buf == nil {
			s.buf = s.Ex.GetNodeBuf()
		}
		s.bin = batchInput(s.In, s.Ex, s.Col)
	}
	if err := s.In.Open(); err != nil {
		// Self-cleaning on failure: return the pooled batch buffer (no
		// Close will follow this Open).
		if s.buf != nil {
			s.Ex.PutNodeBuf(s.buf)
			s.buf = nil
		}
		s.bin = nil
		return err
	}
	return nil
}

// Next implements Iter.
func (s *Select) Next() (bool, error) {
	for {
		ok, err := s.In.Next()
		if err != nil || !ok {
			return false, err
		}
		keep, err := s.Ex.M.RunBool(s.Prog)
		if err != nil {
			return false, err
		}
		if keep {
			return true, nil
		}
	}
}

// Close implements Iter.
func (s *Select) Close() error {
	if s.buf != nil {
		s.Ex.PutNodeBuf(s.buf)
		s.buf = nil
	}
	s.bin = nil
	return s.In.Close()
}

// Map computes an attribute per tuple (χ). Pure attribute aliases are
// resolved by the code generator and never reach execution.
type Map struct {
	Ex     *Exec
	In     Iter
	Prog   *nvm.Program
	OutReg int
}

// Open implements Iter.
func (m *Map) Open() error { return m.In.Open() }

// Next implements Iter.
func (m *Map) Next() (bool, error) {
	ok, err := m.In.Next()
	if err != nil || !ok {
		return false, err
	}
	v, err := m.Ex.M.Run(m.Prog)
	if err != nil {
		return false, err
	}
	m.Ex.M.Regs[m.OutReg] = v
	return true, nil
}

// Close implements Iter.
func (m *Map) Close() error { return m.In.Close() }

// PosMap writes 1-based context positions (χ_cp:counter++, section 3.3.3).
// The counter resets at Open and, when EpochReg is set, whenever the epoch
// changes (stacked translation, section 4.3.1).
type PosMap struct {
	Ex       *Exec
	In       Iter
	OutReg   int
	EpochReg int // -1: reset only at Open

	counter   int64
	lastEpoch float64
}

// Open implements Iter.
func (p *PosMap) Open() error {
	p.counter = 0
	p.lastEpoch = -1
	return p.In.Open()
}

// Next implements Iter.
func (p *PosMap) Next() (bool, error) {
	ok, err := p.In.Next()
	if err != nil || !ok {
		return false, err
	}
	regs := p.Ex.M.Regs
	if p.EpochReg >= 0 {
		if e := regs[p.EpochReg].Num(); e != p.lastEpoch {
			p.counter = 0
			p.lastEpoch = e
		}
	}
	p.counter++
	regs[p.OutReg] = nvm.NumVal(float64(p.counter))
	return true, nil
}

// Close implements Iter.
func (p *PosMap) Close() error { return p.In.Close() }

// row is a saved register snapshot used by materializing operators.
type row []nvm.Val

func snapshot(regs []nvm.Val, which []int, buf row) row {
	if buf == nil {
		buf = make(row, len(which))
	}
	for i, r := range which {
		buf[i] = regs[r]
	}
	return buf
}

func restore(regs []nvm.Val, which []int, r row) {
	for i, reg := range which {
		regs[reg] = r[i]
	}
}

// TmpCS implements Tmp^cs/Tmp^cs_c (section 5.2.4): each context is
// materialized once; the position attribute of its final tuple is the
// context size, which is attached to every re-emitted tuple.
type TmpCS struct {
	Ex       *Exec
	In       Iter
	PosReg   int
	OutReg   int
	EpochReg int   // -1: whole input is one context
	SaveRegs []int // registers produced by the input subtree

	// buf holds the current context. Its rows stay allocated beyond len
	// across contexts and re-Opens, and new ones are carved from chunk, so
	// buffering a tuple does not allocate per tuple.
	buf     []row
	chunk   []nvm.Val
	idx     int
	cs      float64
	pending bool // a lookahead tuple (next context) is buffered
	// pendRow is the lookahead's own storage, copied into buf when its
	// context starts: a slot of buf would be overwritten by that context.
	pendRow   row
	inOpen    bool
	exhausted bool
	posIdx    int
	epochIdx  int
	charged   int64
}

// Open implements Iter.
func (t *TmpCS) Open() error {
	t.Ex.Gov.Release(t.charged)
	t.charged = 0
	t.buf = t.buf[:0]
	t.idx = 0
	t.pending = false
	t.exhausted = false
	var err error
	if t.posIdx, err = slotOf(t.SaveRegs, t.PosReg); err != nil {
		return err
	}
	if t.EpochReg >= 0 {
		if t.epochIdx, err = slotOf(t.SaveRegs, t.EpochReg); err != nil {
			return err
		}
	}
	if err := t.In.Open(); err != nil {
		return err
	}
	t.inOpen = true
	return nil
}

// Next implements Iter.
func (t *TmpCS) Next() (bool, error) {
	regs := t.Ex.M.Regs
	oneRow := rowBytes(len(t.SaveRegs))
	for {
		if t.idx < len(t.buf) {
			if err := t.Ex.Gov.Event(); err != nil {
				return false, err
			}
			restore(regs, t.SaveRegs, t.buf[t.idx])
			regs[t.OutReg] = nvm.NumVal(t.cs)
			t.idx++
			return true, nil
		}
		// Current context fully replayed; gather the next one. The buffer
		// memory is reused, so its budget charge is returned first.
		t.Ex.Gov.Release(t.charged)
		t.charged = 0
		t.buf = t.buf[:0]
		t.idx = 0
		if t.exhausted && !t.pending {
			return false, nil
		}
		var epoch float64
		if t.pending {
			if err := t.Ex.Gov.Grow(oneRow); err != nil {
				return false, err
			}
			t.charged += oneRow
			copy(t.slot(), t.pendRow)
			t.pending = false
			if t.EpochReg >= 0 {
				epoch = t.buf[0][t.epochIdx].Num()
			}
		}
		for !t.exhausted {
			ok, err := t.In.Next()
			if err != nil {
				return false, err
			}
			if !ok {
				t.exhausted = true
				break
			}
			if err := t.Ex.Gov.Grow(oneRow); err != nil {
				return false, err
			}
			t.charged += oneRow
			if t.EpochReg >= 0 {
				e := regs[t.EpochReg].Num()
				if len(t.buf) == 0 {
					epoch = e
				} else if e != epoch {
					// The tuple belongs to the next context.
					t.pendRow = snapshot(regs, t.SaveRegs, t.pendRow)
					t.pending = true
					break
				}
			}
			snapshot(regs, t.SaveRegs, t.slot())
		}
		if len(t.buf) == 0 {
			if t.exhausted && !t.pending {
				return false, nil
			}
			continue
		}
		// The position attribute of the final tuple is the context size.
		t.cs = t.buf[len(t.buf)-1][t.posIdx].Num()
	}
}

// slot appends a row to buf and returns its storage: the row an earlier
// context or run left beyond len, or else one carved from chunk. A chunk
// holds as many rows as buf already has (1 to 256), so a context of n
// tuples allocates O(log n) times on its first pass and never again.
func (t *TmpCS) slot() row {
	n := len(t.buf)
	if n < cap(t.buf) && t.buf[:n+1][n] != nil {
		t.buf = t.buf[:n+1]
		return t.buf[n]
	}
	w := len(t.SaveRegs)
	if len(t.chunk) < w {
		t.chunk = make([]nvm.Val, min(max(n, 1), 256)*w)
	}
	r := row(t.chunk[:w:w])
	t.chunk = t.chunk[w:]
	t.buf = append(t.buf, r)
	return r
}

// slotOf resolves a register to its index in the snapshot set. A miss is a
// code-generation invariant violation; it surfaces as an error rather than
// a panic so a compiler bug degrades to a failed query, not a dead process.
func slotOf(regs []int, reg int) (int, error) {
	for i, r := range regs {
		if r == reg {
			return i, nil
		}
	}
	return 0, fmt.Errorf("physical: register r%d not in snapshot set %v", reg, regs)
}

// Close implements Iter.
func (t *TmpCS) Close() error {
	t.Ex.Gov.Release(t.charged)
	t.charged = 0
	if t.inOpen {
		t.inOpen = false
		return t.In.Close()
	}
	return nil
}

// DJoin re-evaluates the dependent side per left tuple (section 3.1.1).
type DJoin struct {
	L, R Iter

	rOpen bool
}

// Open implements Iter.
func (d *DJoin) Open() error {
	d.rOpen = false
	return d.L.Open()
}

// Next implements Iter.
func (d *DJoin) Next() (bool, error) {
	for {
		if d.rOpen {
			ok, err := d.R.Next()
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
			if err := d.R.Close(); err != nil {
				return false, err
			}
			d.rOpen = false
		}
		ok, err := d.L.Next()
		if err != nil || !ok {
			return false, err
		}
		if err := d.R.Open(); err != nil {
			return false, err
		}
		d.rOpen = true
	}
}

// Close implements Iter.
func (d *DJoin) Close() error {
	if d.rOpen {
		d.rOpen = false
		if err := d.R.Close(); err != nil {
			return err
		}
	}
	return d.L.Close()
}

// MemoX is 𝔐 (section 4.2.2): keyed by the node in KeyReg at Open, it
// caches the register snapshots its input produces and replays them on
// later evaluations with the same key. The cache lives for one query
// execution. An evaluation abandoned before exhaustion (smart aggregation
// early exit) leaves no cache entry.
type MemoX struct {
	Ex       *Exec
	In       Iter
	KeyReg   int
	SaveRegs []int

	cache     map[any][]row
	replay    []row
	replayIdx int
	recording bool
	recorded  []row
	key       any
	inOpen    bool
	// recCharged is the byte-budget charge of the current (uncommitted)
	// recording; committed cache entries stay charged for the execution.
	recCharged int64
}

// Open implements Iter.
func (m *MemoX) Open() error {
	if m.cache == nil {
		m.cache = make(map[any][]row)
	}
	if m.inOpen {
		// Re-opened before exhaustion: drop the partial recording (and
		// return its budget charge).
		m.recording = false
		m.Ex.Gov.Release(m.recCharged)
		m.recCharged = 0
		if err := m.In.Close(); err != nil {
			return err
		}
		m.inOpen = false
	}
	m.key = m.Ex.M.Regs[m.KeyReg].Key()
	if rows, ok := m.cache[m.key]; ok {
		m.Ex.Stats.MemoHits++
		m.replay, m.replayIdx = rows, 0
		return nil
	}
	m.Ex.Stats.MemoMisses++
	m.replay = nil
	m.recorded = m.recorded[:0]
	m.recCharged = 0
	m.recording = true
	if err := m.In.Open(); err != nil {
		m.recording = false
		return err
	}
	m.inOpen = true
	return nil
}

// Next implements Iter.
func (m *MemoX) Next() (bool, error) {
	regs := m.Ex.M.Regs
	if m.replay != nil {
		if m.replayIdx >= len(m.replay) {
			return false, nil
		}
		if err := m.Ex.Gov.Event(); err != nil {
			return false, err
		}
		restore(regs, m.SaveRegs, m.replay[m.replayIdx])
		m.replayIdx++
		return true, nil
	}
	ok, err := m.In.Next()
	if err != nil {
		return false, err
	}
	if !ok {
		if m.recording {
			rows := make([]row, len(m.recorded))
			copy(rows, m.recorded)
			m.cache[m.key] = rows
			m.recording = false
			m.recCharged = 0 // committed: the cache owns the charge now
		}
		return false, nil
	}
	if m.recording {
		n := rowBytes(len(m.SaveRegs))
		if err := m.Ex.Gov.Grow(n); err != nil {
			return false, err
		}
		m.recCharged += n
		m.recorded = append(m.recorded, snapshot(regs, m.SaveRegs, nil))
	}
	return true, nil
}

// Close implements Iter.
func (m *MemoX) Close() error {
	if m.recording {
		m.recording = false
		m.Ex.Gov.Release(m.recCharged)
		m.recCharged = 0
	}
	m.replay = nil
	if m.inOpen {
		m.inOpen = false
		return m.In.Close()
	}
	return nil
}

// DupElim is Π^D on one node attribute, a filter over the same
// per-document sets as a visited-set step: state resets at Open, so its
// dedup scope is one evaluation of the (sub)plan it sits in.
type DupElim struct {
	Ex      *Exec
	In      Iter
	AttrReg int
	// Batch marks this instance batch-capable (set by the code generator).
	Batch bool

	seen visitSets

	// Batched-protocol state: the input column buffer.
	bin batchSource
	buf []dom.Node
}

// Open implements Iter.
func (d *DupElim) Open() error {
	d.seen.reset(d.Ex.Gov)
	if !d.Batched() {
		return d.In.Open()
	}
	if d.buf == nil {
		d.buf = d.Ex.GetNodeBuf()
	}
	d.bin = batchInput(d.In, d.Ex, d.AttrReg)
	if err := d.In.Open(); err != nil {
		// Self-cleaning on failure: return the pooled batch buffer (no
		// Close will follow this Open).
		d.Ex.PutNodeBuf(d.buf)
		d.buf = nil
		d.bin = nil
		return err
	}
	return nil
}

// Next implements Iter.
func (d *DupElim) Next() (bool, error) {
	for {
		ok, err := d.In.Next()
		if err != nil || !ok {
			return false, err
		}
		if !d.seen.add(d.Ex.M.Regs[d.AttrReg].Node()) {
			d.Ex.Stats.DupDropped++
			continue
		}
		if err := d.seen.charge(d.Ex.Gov); err != nil {
			return false, err
		}
		return true, nil
	}
}

// Close implements Iter, returning the sets' charge to the budget.
func (d *DupElim) Close() error {
	d.seen.reset(d.Ex.Gov)
	if d.buf != nil {
		d.Ex.PutNodeBuf(d.buf)
		d.buf = nil
	}
	d.bin = nil
	return d.In.Close()
}

// Concat is ⊕: inputs in order. All inputs write the same output register
// (attribute aliasing by the code generator).
type Concat struct {
	Ins []Iter
	// Ex, Col and Batch support the batched protocol: Col is the shared
	// output column every input is renamed to. Hand-built plans may leave
	// them zero (scalar protocol only).
	Ex    *Exec
	Col   int
	Batch bool

	idx    int
	opened bool
	cur    batchSource
}

// Open implements Iter.
func (c *Concat) Open() error {
	c.idx = 0
	c.opened = false
	c.cur = nil
	return nil
}

// Next implements Iter.
func (c *Concat) Next() (bool, error) {
	for c.idx < len(c.Ins) {
		if !c.opened {
			if err := c.Ins[c.idx].Open(); err != nil {
				return false, err
			}
			c.opened = true
		}
		ok, err := c.Ins[c.idx].Next()
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
		if err := c.Ins[c.idx].Close(); err != nil {
			return false, err
		}
		c.opened = false
		c.idx++
	}
	return false, nil
}

// Close implements Iter.
func (c *Concat) Close() error {
	if c.opened {
		c.opened = false
		return c.Ins[c.idx].Close()
	}
	return nil
}

// SortIter materializes its input and emits it in document order of the
// node attribute (section 3.4.2).
type SortIter struct {
	Ex       *Exec
	In       Iter
	AttrReg  int
	SaveRegs []int
	// Batch marks this instance batch-capable (set by the code generator
	// when downstream provably reads only the node column, so the batched
	// variant materializes one column instead of full register snapshots).
	Batch bool

	rows    []row
	idx     int
	charged int64

	// nodes is the batched variant's column, borrowed from the run's
	// scratch from Open to Close while held is set.
	nodes []dom.Node
	held  bool
}

// Open implements Iter. The input is fully materialized here; on any error
// the input is closed before returning, so a failed Open leaves nothing
// open underneath (the self-cleaning Open contract).
func (s *SortIter) Open() error {
	s.Ex.Gov.Release(s.charged)
	s.charged = 0
	s.rows = s.rows[:0]
	s.idx = 0
	if s.Batched() {
		return s.openBatched()
	}
	if err := s.In.Open(); err != nil {
		return err
	}
	regs := s.Ex.M.Regs
	oneRow := rowBytes(len(s.SaveRegs))
	for {
		ok, err := s.In.Next()
		if err != nil {
			s.In.Close()
			return err
		}
		if !ok {
			break
		}
		if err := s.Ex.Gov.Grow(oneRow); err != nil {
			s.In.Close()
			return err
		}
		s.charged += oneRow
		s.rows = append(s.rows, snapshot(regs, s.SaveRegs, nil))
	}
	if err := s.In.Close(); err != nil {
		return err
	}
	slot, err := slotOf(s.SaveRegs, s.AttrReg)
	if err != nil {
		return err
	}
	sort.SliceStable(s.rows, func(i, j int) bool {
		return dom.CompareOrder(s.rows[i][slot].Node(), s.rows[j][slot].Node()) < 0
	})
	s.Ex.Stats.Sorted += int64(len(s.rows))
	return nil
}

// Next implements Iter.
func (s *SortIter) Next() (bool, error) {
	if s.idx >= len(s.rows) {
		return false, nil
	}
	if err := s.Ex.Gov.Event(); err != nil {
		return false, err
	}
	restore(s.Ex.M.Regs, s.SaveRegs, s.rows[s.idx])
	s.idx++
	return true, nil
}

// Close implements Iter, returning the batched variant's column.
func (s *SortIter) Close() error {
	s.putColumn()
	return nil
}

// TokenizeIter splits the string value of a program into whitespace tokens,
// one tuple per token (id() input conversion).
type TokenizeIter struct {
	Ex     *Exec
	In     Iter
	Prog   *nvm.Program
	OutReg int

	tokens []string
	idx    int
	active bool
}

// Open implements Iter.
func (t *TokenizeIter) Open() error {
	t.active = false
	return t.In.Open()
}

// Next implements Iter.
func (t *TokenizeIter) Next() (bool, error) {
	for {
		if t.active && t.idx < len(t.tokens) {
			t.Ex.M.Regs[t.OutReg] = nvm.StrVal(t.tokens[t.idx])
			t.idx++
			return true, nil
		}
		ok, err := t.In.Next()
		if err != nil || !ok {
			return false, err
		}
		v, err := t.Ex.M.Run(t.Prog)
		if err != nil {
			return false, err
		}
		t.tokens = xfn.Tokenize(v.Str())
		t.idx = 0
		t.active = true
	}
}

// Close implements Iter.
func (t *TokenizeIter) Close() error { return t.In.Close() }

// DerefIter resolves one ID string per input tuple to an element, emitting
// a tuple only on success (deref() of section 3.6.3).
type DerefIter struct {
	Ex     *Exec
	In     Iter
	Prog   *nvm.Program
	OutReg int
}

// Open implements Iter.
func (d *DerefIter) Open() error { return d.In.Open() }

// Next implements Iter.
func (d *DerefIter) Next() (bool, error) {
	for {
		ok, err := d.In.Next()
		if err != nil || !ok {
			return false, err
		}
		v, err := d.Ex.M.Run(d.Prog)
		if err != nil {
			return false, err
		}
		if id := d.Ex.CtxDoc.ElementByID(v.Str()); id != dom.NilNode {
			d.Ex.M.Regs[d.OutReg] = nvm.NodeVal(dom.Node{Doc: d.Ex.CtxDoc, ID: id})
			return true, nil
		}
	}
}

// Close implements Iter.
func (d *DerefIter) Close() error { return d.In.Close() }

// ExistsJoin implements the node-set comparison joins of section 3.6.2.
// The right side's distinct string-values are materialized once at Open;
// left tuples stream through and are emitted if some right value matches
// (equality or inequality). The consuming exists() aggregate stops at the
// first emitted tuple.
type ExistsJoin struct {
	Ex   *Exec
	L, R Iter
	LReg int
	RReg int
	Eq   bool

	rVals    map[string]struct{}
	anyTwo   bool // inequality: at least two distinct right values
	singular string
	charged  int64
}

// Open implements Iter.
func (j *ExistsJoin) Open() error {
	if j.rVals == nil {
		j.rVals = make(map[string]struct{})
	} else {
		clear(j.rVals)
	}
	j.Ex.Gov.Release(j.charged)
	j.charged = 0
	j.anyTwo = false
	if err := j.R.Open(); err != nil {
		return err
	}
	regs := j.Ex.M.Regs
	for {
		ok, err := j.R.Next()
		if err != nil {
			j.R.Close()
			return err
		}
		if !ok {
			break
		}
		sv := regs[j.RReg].Str()
		if _, have := j.rVals[sv]; !have {
			n := keyBytes + int64(len(sv))
			if err := j.Ex.Gov.Grow(n); err != nil {
				j.R.Close()
				return err
			}
			j.charged += n
		}
		j.rVals[sv] = struct{}{}
		if len(j.rVals) >= 2 {
			j.anyTwo = true
			if !j.Eq {
				// Inequality needs no more right values: any left tuple
				// will find a differing one.
				break
			}
		}
	}
	if err := j.R.Close(); err != nil {
		return err
	}
	if !j.Eq && len(j.rVals) == 1 {
		for v := range j.rVals {
			j.singular = v
		}
	}
	return j.L.Open()
}

// Next implements Iter.
func (j *ExistsJoin) Next() (bool, error) {
	if len(j.rVals) == 0 {
		return false, nil // empty right side: no pair exists
	}
	regs := j.Ex.M.Regs
	for {
		ok, err := j.L.Next()
		if err != nil || !ok {
			return false, err
		}
		sv := regs[j.LReg].Str()
		if j.Eq {
			if _, hit := j.rVals[sv]; hit {
				return true, nil
			}
			continue
		}
		if j.anyTwo || sv != j.singular {
			return true, nil
		}
	}
}

// Close implements Iter.
func (j *ExistsJoin) Close() error { return j.L.Close() }
