package physical

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"natix/internal/dom"
	"natix/internal/guard"
	"natix/internal/xval"
)

// nestedDoc builds a complete tree of the given fanout and depth.
func nestedDoc(fanout, depth int) *dom.MemDoc {
	b := dom.NewBuilder()
	var build func(level int)
	build = func(level int) {
		b.StartElement("", "e", "")
		if level < depth {
			for i := 0; i < fanout; i++ {
				build(level + 1)
			}
		}
		b.EndElement()
	}
	build(0)
	return b.Doc()
}

// visitedRun drains Υ[axis::*] over the nodes of $v, fused (a visited-set
// step) or as Π^D over a plain Υ, and returns the output and the Stats.
// Batch 0 builds the operators unmarked, so they run the scalar protocol;
// otherwise they run batched at that size, drained 5 nodes at a time.
func visitedRun(t *testing.T, ctxs []dom.Node, axis dom.Axis, fused bool, batch int) ([]dom.Node, Stats) {
	t.Helper()
	ex := newExec(2)
	ex.BatchSize = batch
	ex.M.Vars = map[string]xval.Value{"v": xval.NodeSet(ctxs)}
	marked := batch > 0
	um := &UnnestMap{
		Ex: ex, In: &VarScan{Ex: ex, Name: "v", OutReg: 0, Batch: marked}, InReg: 0, OutReg: 1,
		EpochReg: -1, Axis: axis, Test: dom.NodeTest{Kind: dom.TestAnyName}, Batch: marked, Visited: fused,
	}
	var it Iter = um
	if !fused {
		it = &DupElim{Ex: ex, In: um, AttrReg: 1, Batch: marked}
	}
	return drainNodes(t, it, ex, 1), ex.Stats
}

// drainNodes opens, drains and closes a node-column operator on the
// protocol it serves, batched 5 nodes at a time, and returns its output:
// the node column, or register reg on the scalar protocol.
func drainNodes(t *testing.T, it Iter, ex *Exec, reg int) []dom.Node {
	t.Helper()
	var out []dom.Node
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	if bi := it.(BatchIter); bi.Batched() {
		buf := make([]dom.Node, 5)
		for {
			k, err := bi.NextBatch(buf)
			if err != nil {
				t.Fatal(err)
			}
			if k == 0 {
				break
			}
			out = append(out, buf[:k]...)
		}
	} else {
		for {
			ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			out = append(out, ex.M.Regs[reg].Node())
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestVisitedStepMatchesDupElim: on both protocols a visited-set step
// emits exactly what Π^D over the plain Υ emits, in order, for contexts
// with duplicates from two documents, and does no more axis steps.
func TestVisitedStepMatchesDupElim(t *testing.T) {
	d1, d2 := nestedDoc(3, 4), nestedDoc(2, 5)
	var ctxs []dom.Node
	for i, id := range []dom.NodeID{9, 40, 3, 9, 77, 2, 40, 100, 5} {
		ctxs = append(ctxs, dom.Node{Doc: d1, ID: id})
		ctxs = append(ctxs, dom.Node{Doc: d2, ID: dom.NodeID(1 + (int(id)*7+i)%d2.NodeCount())})
	}
	for _, axis := range []dom.Axis{
		dom.AxisAncestor, dom.AxisDescendant, dom.AxisDescendantOrSelf, dom.AxisFollowing,
		dom.AxisPreceding, dom.AxisFollowingSibling, dom.AxisParent, dom.AxisChild,
	} {
		for _, batch := range []int{0, 4, DefaultBatchSize} {
			want, plain := visitedRun(t, ctxs, axis, false, batch)
			got, fused := visitedRun(t, ctxs, axis, true, batch)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s batch %d: fused %v, want %v", axis, batch, got, want)
			}
			if fused.Tuples != int64(len(want)) || fused.AxisSteps > plain.AxisSteps {
				t.Errorf("%s batch %d: fused stats %+v, plain %+v", axis, batch, fused, plain)
			}
		}
	}
}

// TestVisitedStepByteBudget: a visited-set step, and DupElim over the same
// per-document sets, charge their sets to the byte budget, trip MaxBytes,
// and return the charge on Close and on re-Open.
func TestVisitedStepByteBudget(t *testing.T) {
	d := nestedDoc(4, 5)
	ctxs := []dom.Node{{Doc: d, ID: d.Root()}, {Doc: d, ID: d.Root()}}
	for _, c := range []struct {
		name string
		make func(ex *Exec, in Iter) Iter
	}{
		{"UnnestMap.Visited", func(ex *Exec, in Iter) Iter {
			return &UnnestMap{
				Ex: ex, In: in, InReg: 0, OutReg: 1, EpochReg: -1,
				Axis: dom.AxisDescendant, Test: dom.NodeTest{Kind: dom.TestAnyName}, Visited: true,
			}
		}},
		{"DupElim", func(ex *Exec, in Iter) Iter { return &DupElim{Ex: ex, In: in} }},
	} {
		newStep := func(limits guard.Limits) (Iter, *guard.Governor) {
			ex := newExec(2)
			ex.Gov = guard.New(context.Background(), limits, nil)
			ex.M.Vars = map[string]xval.Value{"v": xval.NodeSet(ctxs)}
			return c.make(ex, &VarScan{Ex: ex, Name: "v", OutReg: 0}), ex.Gov
		}

		it, gov := newStep(guard.Limits{})
		for round := 0; round < 2; round++ {
			if err := it.Open(); err != nil {
				t.Fatal(err)
			}
			if ok, err := it.Next(); !ok || err != nil {
				t.Fatalf("%s round %d: first Next = %v, %v", c.name, round, ok, err)
			}
			held := dom.NewVisited(d)
			held.Mark(1)
			if b := gov.Bytes(); b < held.Bytes() {
				t.Errorf("%s round %d: %d bytes charged, the set holds at least %d", c.name, round, b, held.Bytes())
			}
			if round == 1 {
				continue // re-Open without a Close
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			if b := gov.Bytes(); b != 0 {
				t.Errorf("%s: %d bytes still charged after Close", c.name, b)
			}
		}
		if err := it.Open(); err != nil {
			t.Fatal(err)
		}
		if b := gov.Bytes(); b != 0 {
			t.Errorf("%s: %d bytes still charged after re-Open", c.name, b)
		}
		it.Close()

		it, gov = newStep(guard.Limits{MaxBytes: 64})
		if err := it.Open(); err != nil {
			t.Fatal(err)
		}
		_, err := it.Next()
		var le *guard.LimitError
		if !errors.As(err, &le) || le.Budget != guard.BudgetBytes {
			t.Fatalf("%s: Next under MaxBytes 64: %v, want a byte-budget LimitError", c.name, err)
		}
		it.Close()
		if b := gov.Bytes(); b != 0 {
			t.Errorf("%s: %d bytes still charged after the tripped step closed", c.name, b)
		}
	}
}

// TestVisitedStepReopenAllocs: re-opening a visited-set step, or DupElim,
// on a large document costs in proportion to the nodes it marks. After the
// first evaluation, re-open, drain and close allocate nothing on either
// protocol.
func TestVisitedStepReopenAllocs(t *testing.T) {
	b := dom.NewBuilder()
	b.StartElement("", "r", "")
	for i := 0; i < 200_000; i++ {
		b.StartElement("", "e", "")
		b.EndElement()
	}
	b.EndElement()
	d := b.Doc()
	var ctxs []dom.Node
	for _, id := range []dom.NodeID{1000, 70_000, 150_000, 70_000} {
		ctxs = append(ctxs, dom.Node{Doc: d, ID: id})
	}
	for _, c := range []struct {
		name string
		want int
		make func(ex *Exec, in Iter, batched bool) Iter
	}{
		{"UnnestMap.Visited", 4, func(ex *Exec, in Iter, batched bool) Iter {
			return &UnnestMap{
				Ex: ex, In: in, InReg: 0, OutReg: 1, EpochReg: -1, Axis: dom.AxisAncestorOrSelf,
				Test: dom.NodeTest{Kind: dom.TestAnyName}, Batch: batched, Visited: true,
			}
		}},
		{"DupElim", 3, func(ex *Exec, in Iter, batched bool) Iter {
			return &DupElim{Ex: ex, In: in, Batch: batched}
		}},
	} {
		for _, batched := range []bool{false, true} {
			ex := newExec(2)
			ex.BatchSize = 16
			ex.M.Vars = map[string]xval.Value{"v": xval.NodeSet(ctxs)}
			it := c.make(ex, &VarScan{Ex: ex, Name: "v", OutReg: 0, Batch: batched}, batched)
			bi := it.(BatchIter)
			buf := make([]dom.Node, 16)
			run := func() {
				if err := it.Open(); err != nil {
					t.Fatal(err)
				}
				n := 0
				if bi.Batched() {
					for k, _ := bi.NextBatch(buf); k > 0; k, _ = bi.NextBatch(buf) {
						n += k
					}
				} else {
					for ok, _ := it.Next(); ok; ok, _ = it.Next() {
						n++
					}
				}
				it.Close()
				if n != c.want {
					t.Fatalf("%s batched %v: %d nodes, want %d", c.name, batched, n, c.want)
				}
			}
			run()
			if a := testing.AllocsPerRun(20, run); a != 0 {
				t.Errorf("%s batched %v: re-open allocates %.1f times", c.name, batched, a)
			}
		}
	}
}
