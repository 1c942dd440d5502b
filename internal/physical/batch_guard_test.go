package physical

import (
	"fmt"
	"testing"

	"natix/internal/dom"
	"natix/internal/nvm"
	"natix/internal/xval"
)

// TestBatchedRequiresExec pins the guard convention shared by every batched
// operator: Batch is a plan-time marking, but an operator only *runs* batched
// when its Exec is attached. An operator constructed by hand (tests, future
// codegen paths) without an Exec must report Batched() == false instead of
// panicking inside NextBatch on a nil Exec dereference.
func TestBatchedRequiresExec(t *testing.T) {
	ex := &Exec{}
	cases := []struct {
		name string
		make func(ex *Exec) BatchIter
	}{
		{"VarScan", func(ex *Exec) BatchIter { return &VarScan{Ex: ex, Batch: true} }},
		{"PathIndexScan", func(ex *Exec) BatchIter { return &PathIndexScan{Ex: ex, Batch: true} }},
		{"UnnestMap", func(ex *Exec) BatchIter { return &UnnestMap{Ex: ex, Batch: true} }},
		{"Select", func(ex *Exec) BatchIter { return &Select{Ex: ex, Batch: true} }},
		{"DupElim", func(ex *Exec) BatchIter { return &DupElim{Ex: ex, Batch: true} }},
		{"Concat", func(ex *Exec) BatchIter { return &Concat{Ex: ex, Batch: true} }},
		{"SortIter", func(ex *Exec) BatchIter { return &SortIter{Ex: ex, Batch: true} }},
	}
	for _, c := range cases {
		if c.make(nil).Batched() {
			t.Errorf("%s: Batched() = true with nil Exec", c.name)
		}
		if !c.make(ex).Batched() {
			t.Errorf("%s: Batched() = false with an Exec attached", c.name)
		}
	}
	// And the marking itself stays required: an Exec alone is not enough.
	if (&UnnestMap{Ex: ex}).Batched() {
		t.Error("UnnestMap: Batched() = true without the Batch marking")
	}
}

// TestNextBatchShortBuffer: a consumer may pass NextBatch a buffer shorter
// than the run's batch size. Select and DupElim must fill at most that
// buffer and deliver the rest on later calls, in order.
func TestNextBatchShortBuffer(t *testing.T) {
	d := nestedDoc(2, 2)
	var nodes []dom.Node
	for id := dom.NodeID(1); id <= 7; id++ {
		nodes = append(nodes, dom.Node{Doc: d, ID: id})
	}
	keepAll := &nvm.Program{Consts: []nvm.Val{nvm.BoolVal(true)}, Code: []nvm.Instr{{Op: nvm.OpConst}, {Op: nvm.OpEnd}}}
	for _, c := range []struct {
		name string
		make func(ex *Exec, in Iter) BatchIter
	}{
		{"Select", func(ex *Exec, in Iter) BatchIter { return &Select{Ex: ex, In: in, Prog: keepAll, Batch: true} }},
		{"DupElim", func(ex *Exec, in Iter) BatchIter { return &DupElim{Ex: ex, In: in, Batch: true} }},
	} {
		t.Run(c.name, func(t *testing.T) {
			ex := newExec(1)
			ex.BatchSize = 8
			ex.M.Vars = map[string]xval.Value{"v": xval.NodeSet(nodes)}
			it := c.make(ex, &VarScan{Ex: ex, Name: "v", Batch: true})
			if err := it.Open(); err != nil {
				t.Fatal(err)
			}
			var got []dom.Node
			buf := make([]dom.Node, 2)
			for {
				k, err := func() (k int, err error) {
					defer func() {
						if r := recover(); r != nil {
							err = fmt.Errorf("panic: %v", r)
						}
					}()
					return it.NextBatch(buf)
				}()
				if err != nil {
					t.Fatalf("NextBatch into %d slots: %v", len(buf), err)
				}
				if k == 0 {
					break
				}
				got = append(got, buf[:k]...)
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(nodes) {
				t.Errorf("%v, want %v", got, nodes)
			}
		})
	}
}
