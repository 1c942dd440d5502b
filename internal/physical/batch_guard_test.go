package physical

import "testing"

// TestBatchedRequiresExec pins the guard convention shared by every batched
// operator: Batch is a plan-time marking, but an operator only *runs* batched
// when its Exec is attached and carries a positive BatchSize. An operator
// constructed by hand (tests, future codegen paths) without an Exec must
// report Batched() == false instead of panicking inside NextBatch on a nil
// Exec dereference.
func TestBatchedRequiresExec(t *testing.T) {
	withExec := &Exec{BatchSize: DefaultBatchSize}
	noBatch := &Exec{}
	cases := []struct {
		name    string
		make    func(ex *Exec) BatchIter
		batched bool // expected with a batch-sized Exec attached
	}{
		{"VarScan", func(ex *Exec) BatchIter { return &VarScan{Ex: ex, Batch: true} }, true},
		{"PathIndexScan", func(ex *Exec) BatchIter { return &PathIndexScan{Ex: ex, Batch: true} }, true},
		{"UnnestMap", func(ex *Exec) BatchIter { return &UnnestMap{Ex: ex, Batch: true} }, true},
		{"Select", func(ex *Exec) BatchIter { return &Select{Ex: ex, Batch: true} }, true},
		{"DupElim", func(ex *Exec) BatchIter { return &DupElim{Ex: ex, Batch: true} }, true},
		{"Concat", func(ex *Exec) BatchIter { return &Concat{Ex: ex, Batch: true} }, true},
		{"SortIter", func(ex *Exec) BatchIter { return &SortIter{Ex: ex, Batch: true} }, true},
	}
	for _, c := range cases {
		if got := c.make(nil).Batched(); got {
			t.Errorf("%s: Batched() = true with nil Exec", c.name)
		}
		if got := c.make(noBatch).Batched(); got {
			t.Errorf("%s: Batched() = true with BatchSize 0", c.name)
		}
		if got := c.make(withExec).Batched(); got != c.batched {
			t.Errorf("%s: Batched() = %v with batch-sized Exec, want %v", c.name, got, c.batched)
		}
		// And the marking itself stays required: an Exec alone is not enough.
		un := &UnnestMap{Ex: withExec}
		if un.Batched() {
			t.Error("UnnestMap: Batched() = true without the Batch marking")
		}
	}
}
