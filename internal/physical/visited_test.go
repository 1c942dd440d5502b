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
			out = append(out, ex.M.Regs[1].Node())
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	return out, ex.Stats
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

// TestVisitedStepByteBudget: a visited-set step charges its sets to the
// byte budget, trips MaxBytes, and returns the charge on Close and on
// re-Open.
func TestVisitedStepByteBudget(t *testing.T) {
	d := nestedDoc(4, 5)
	ctxs := []dom.Node{{Doc: d, ID: d.Root()}}
	newStep := func(limits guard.Limits) (*UnnestMap, *guard.Governor) {
		ex := newExec(2)
		ex.Gov = guard.New(context.Background(), limits, nil)
		ex.M.Vars = map[string]xval.Value{"v": xval.NodeSet(ctxs)}
		return &UnnestMap{
			Ex: ex, In: &VarScan{Ex: ex, Name: "v", OutReg: 0}, InReg: 0, OutReg: 1, EpochReg: -1,
			Axis: dom.AxisDescendant, Test: dom.NodeTest{Kind: dom.TestAnyName}, Visited: true,
		}, ex.Gov
	}

	um, gov := newStep(guard.Limits{})
	for round := 0; round < 2; round++ {
		if err := um.Open(); err != nil {
			t.Fatal(err)
		}
		if ok, err := um.Next(); !ok || err != nil {
			t.Fatalf("round %d: first Next = %v, %v", round, ok, err)
		}
		held := dom.NewVisited(d)
		held.Mark(1)
		if b := gov.Bytes(); b < held.Bytes() {
			t.Errorf("round %d: %d bytes charged, the set holds at least %d", round, b, held.Bytes())
		}
		if err := um.Close(); err != nil {
			t.Fatal(err)
		}
		if b := gov.Bytes(); b != 0 {
			t.Errorf("round %d: %d bytes still charged after Close", round, b)
		}
	}

	um, gov = newStep(guard.Limits{MaxBytes: 64})
	if err := um.Open(); err != nil {
		t.Fatal(err)
	}
	_, err := um.Next()
	var le *guard.LimitError
	if !errors.As(err, &le) || le.Budget != guard.BudgetBytes {
		t.Fatalf("Next under MaxBytes 64: %v, want a byte-budget LimitError", err)
	}
	um.Close()
	if b := gov.Bytes(); b != 0 {
		t.Errorf("%d bytes still charged after the tripped step closed", b)
	}
}

// TestVisitedStepReopenAllocs: re-opening a visited-set step on a large
// document costs in proportion to the nodes it marks. After the first
// evaluation, re-open, walk and close allocate nothing on either protocol.
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
	for _, batched := range []bool{false, true} {
		ex := newExec(2)
		ex.BatchSize = 16
		ex.M.Vars = map[string]xval.Value{"v": xval.NodeSet(ctxs)}
		um := &UnnestMap{
			Ex: ex, In: &VarScan{Ex: ex, Name: "v", OutReg: 0, Batch: batched}, InReg: 0, OutReg: 1,
			EpochReg: -1, Axis: dom.AxisAncestorOrSelf, Test: dom.NodeTest{Kind: dom.TestAnyName},
			Batch: batched, Visited: true,
		}
		buf := make([]dom.Node, 16)
		run := func() {
			if err := um.Open(); err != nil {
				t.Fatal(err)
			}
			n := 0
			if um.Batched() {
				for k, _ := um.NextBatch(buf); k > 0; k, _ = um.NextBatch(buf) {
					n += k
				}
			} else {
				for ok, _ := um.Next(); ok; ok, _ = um.Next() {
					n++
				}
			}
			um.Close()
			if n != 4 {
				t.Fatalf("batched %v: %d nodes, want 4", batched, n)
			}
		}
		run()
		if a := testing.AllocsPerRun(20, run); a != 0 {
			t.Errorf("batched %v: re-open allocates %.1f times", batched, a)
		}
	}
}
