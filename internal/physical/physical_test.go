package physical

import (
	"errors"
	"fmt"
	"testing"

	"natix/internal/dom"
	"natix/internal/guard"
	"natix/internal/nvm"
	"natix/internal/xval"
)

func newExec(nregs int) *Exec {
	return &Exec{M: &nvm.Machine{Regs: make([]nvm.Val, nregs)}}
}

// feedIter writes rows of register values (reg index -> value) per Next.
type feedIter struct {
	ex   *Exec
	rows []map[int]nvm.Val
	idx  int
}

func (f *feedIter) Open() error { f.idx = 0; return nil }
func (f *feedIter) Next() (bool, error) {
	if f.idx >= len(f.rows) {
		return false, nil
	}
	for r, v := range f.rows[f.idx] {
		f.ex.M.Regs[r] = v
	}
	f.idx++
	return true, nil
}
func (f *feedIter) Close() error { return nil }

func drain(t *testing.T, it Iter, read func()) int {
	t.Helper()
	if err := it.Open(); err != nil {
		t.Fatalf("open: %v", err)
	}
	n := 0
	for {
		ok, err := it.Next()
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		if !ok {
			break
		}
		n++
		if read != nil {
			read()
		}
	}
	if err := it.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return n
}

func TestSingletonScan(t *testing.T) {
	s := &SingletonScan{}
	if n := drain(t, s, nil); n != 1 {
		t.Errorf("singleton produced %d tuples", n)
	}
	// Reusable after re-open.
	if n := drain(t, s, nil); n != 1 {
		t.Errorf("re-opened singleton produced %d tuples", n)
	}
}

func TestPosMapEpochReset(t *testing.T) {
	ex := newExec(3)
	rows := []map[int]nvm.Val{
		{0: nvm.NumVal(1)}, {0: nvm.NumVal(1)}, {0: nvm.NumVal(2)}, {0: nvm.NumVal(3)}, {0: nvm.NumVal(3)},
	}
	pm := &PosMap{Ex: ex, In: &feedIter{ex: ex, rows: rows}, OutReg: 1, EpochReg: 0}
	var got []float64
	drain(t, pm, func() { got = append(got, ex.M.Regs[1].Num()) })
	want := []float64{1, 2, 1, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("positions %v, want %v", got, want)
		}
	}
	// Without an epoch register, one monotone count per Open.
	pm2 := &PosMap{Ex: ex, In: &feedIter{ex: ex, rows: rows}, OutReg: 1, EpochReg: -1}
	got = nil
	drain(t, pm2, func() { got = append(got, ex.M.Regs[1].Num()) })
	for i, w := range []float64{1, 2, 3, 4, 5} {
		if got[i] != w {
			t.Fatalf("positions %v", got)
		}
	}
}

func TestTmpCSContexts(t *testing.T) {
	ex := newExec(4)
	// (epoch, pos) pairs; three contexts of sizes 2, 1, 3.
	rows := []map[int]nvm.Val{}
	for _, ep := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {3, 1}, {3, 2}, {3, 3}} {
		rows = append(rows, map[int]nvm.Val{0: nvm.NumVal(float64(ep[0])), 1: nvm.NumVal(float64(ep[1]))})
	}
	tc := &TmpCS{Ex: ex, In: &feedIter{ex: ex, rows: rows}, PosReg: 1, OutReg: 2, EpochReg: 0, SaveRegs: []int{0, 1}}
	type out struct{ pos, cs float64 }
	var got []out
	drain(t, tc, func() { got = append(got, out{ex.M.Regs[1].Num(), ex.M.Regs[2].Num()}) })
	want := []out{{1, 2}, {2, 2}, {1, 1}, {1, 3}, {2, 3}, {3, 3}}
	if len(got) != len(want) {
		t.Fatalf("emitted %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tuple %d = %+v, want %+v (all %v)", i, got[i], want[i], got)
		}
	}
}

// TestTmpCSRowReuse replays contexts of sizes 3, 1, 4, 2, 5 — each but the
// first entered through a lookahead row — with a payload register per tuple,
// across three Opens. Rows are reused from context to context and run to
// run, so every payload must come back intact, re-runs must not allocate,
// and the byte charge must be back to zero after Close.
func TestTmpCSRowReuse(t *testing.T) {
	ex := newExec(4)
	ex.Gov = guard.New(nil, guard.Limits{}, nil)
	type out struct{ payload, pos, cs float64 }
	var rows []map[int]nvm.Val
	var want []out
	for ep, size := range []int{3, 1, 4, 2, 5} {
		for pos := 1; pos <= size; pos++ {
			p := float64(100*ep + pos)
			rows = append(rows, map[int]nvm.Val{0: nvm.NumVal(float64(ep)), 1: nvm.NumVal(float64(pos)), 3: nvm.NumVal(p)})
			want = append(want, out{p, float64(pos), float64(size)})
		}
	}
	tc := &TmpCS{Ex: ex, In: &feedIter{ex: ex, rows: rows}, PosReg: 1, OutReg: 2, EpochReg: 0, SaveRegs: []int{0, 1, 3}}
	got := make([]out, 0, len(want))
	read := func() {
		r := ex.M.Regs
		got = append(got, out{r[3].Num(), r[1].Num(), r[2].Num()})
	}
	for run := 0; run < 3; run++ {
		got = got[:0]
		drain(t, tc, read)
		if len(got) != len(want) {
			t.Fatalf("run %d: %d tuples, want %d", run, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d tuple %d = %+v, want %+v", run, i, got[i], want[i])
			}
		}
		if tc.charged != 0 || ex.Gov.Bytes() != 0 {
			t.Fatalf("run %d: %d bytes charged after Close (governor %d)", run, tc.charged, ex.Gov.Bytes())
		}
	}
	if allocs := testing.AllocsPerRun(5, func() { got = got[:0]; drain(t, tc, read) }); allocs != 0 {
		t.Errorf("re-run allocates %.1f times, want 0", allocs)
	}
	// A context abandoned mid-replay still returns its charge on Close.
	if err := tc.Open(); err != nil {
		t.Fatal(err)
	}
	if ok, err := tc.Next(); !ok || err != nil {
		t.Fatalf("Next = %v, %v", ok, err)
	}
	if ex.Gov.Bytes() == 0 {
		t.Fatal("nothing charged for a buffered context")
	}
	tc.Close()
	if tc.charged != 0 || ex.Gov.Bytes() != 0 {
		t.Errorf("%d bytes charged after an early Close (governor %d)", tc.charged, ex.Gov.Bytes())
	}
}

func TestTmpCSWholeInput(t *testing.T) {
	ex := newExec(3)
	rows := []map[int]nvm.Val{
		{0: nvm.NumVal(1)}, {0: nvm.NumVal(2)}, {0: nvm.NumVal(3)},
	}
	tc := &TmpCS{Ex: ex, In: &feedIter{ex: ex, rows: rows}, PosReg: 0, OutReg: 1, EpochReg: -1, SaveRegs: []int{0}}
	var css []float64
	drain(t, tc, func() { css = append(css, ex.M.Regs[1].Num()) })
	if len(css) != 3 || css[0] != 3 || css[2] != 3 {
		t.Errorf("cs values %v, want all 3", css)
	}
	// Empty input.
	tc2 := &TmpCS{Ex: ex, In: &feedIter{ex: ex}, PosReg: 0, OutReg: 1, EpochReg: -1, SaveRegs: []int{0}}
	if n := drain(t, tc2, nil); n != 0 {
		t.Errorf("empty input emitted %d", n)
	}
}

// TestDupElim: Π^D keeps the first occurrence of each node in input
// order, counts the rest in DupDropped, and starts afresh on re-Open, on
// both protocols.
func TestDupElim(t *testing.T) {
	d := nestedDoc(2, 2)
	var in []dom.Node
	for _, id := range []dom.NodeID{1, 2, 1, 3, 2, 1} {
		in = append(in, dom.Node{Doc: d, ID: id})
	}
	want := fmt.Sprint([]dom.Node{in[0], in[1], in[3]})
	for _, batched := range []bool{false, true} {
		ex := newExec(1)
		ex.M.Vars = map[string]xval.Value{"v": xval.NodeSet(in)}
		de := &DupElim{Ex: ex, In: &VarScan{Ex: ex, Name: "v", Batch: batched}, Batch: batched}
		for round := int64(1); round <= 2; round++ {
			if got := fmt.Sprint(drainNodes(t, de, ex, 0)); got != want {
				t.Errorf("batched %v round %d: %s, want %s", batched, round, got, want)
			}
			if ex.Stats.DupDropped != 3*round {
				t.Errorf("batched %v round %d: DupDropped = %d, want %d", batched, round, ex.Stats.DupDropped, 3*round)
			}
		}
	}
}

func TestMemoXRecordReplay(t *testing.T) {
	ex := newExec(3)
	feed := &feedIter{ex: ex, rows: []map[int]nvm.Val{
		{1: nvm.NumVal(10)}, {1: nvm.NumVal(20)},
	}}
	mx := &MemoX{Ex: ex, In: feed, KeyReg: 0, SaveRegs: []int{1}}

	ex.M.Regs[0] = nvm.StrVal("k1")
	var got []float64
	drain(t, mx, func() { got = append(got, ex.M.Regs[1].Num()) })
	if len(got) != 2 {
		t.Fatalf("first eval: %v", got)
	}
	if ex.Stats.MemoMisses != 1 || ex.Stats.MemoHits != 0 {
		t.Fatalf("stats after miss: %+v", ex.Stats)
	}

	// Change the underlying feed: a replay must NOT see the new values.
	feed.rows = []map[int]nvm.Val{{1: nvm.NumVal(99)}}
	got = nil
	drain(t, mx, func() { got = append(got, ex.M.Regs[1].Num()) })
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("replay saw %v, want cached [10 20]", got)
	}
	if ex.Stats.MemoHits != 1 {
		t.Fatalf("stats after hit: %+v", ex.Stats)
	}

	// Different key evaluates the (changed) input.
	ex.M.Regs[0] = nvm.StrVal("k2")
	got = nil
	drain(t, mx, func() { got = append(got, ex.M.Regs[1].Num()) })
	if len(got) != 1 || got[0] != 99 {
		t.Fatalf("new key saw %v", got)
	}
}

func TestMemoXAbandonedNotCached(t *testing.T) {
	ex := newExec(3)
	feed := &feedIter{ex: ex, rows: []map[int]nvm.Val{
		{1: nvm.NumVal(1)}, {1: nvm.NumVal(2)}, {1: nvm.NumVal(3)},
	}}
	mx := &MemoX{Ex: ex, In: feed, KeyReg: 0, SaveRegs: []int{1}}
	ex.M.Regs[0] = nvm.StrVal("k")
	// Consume one tuple, then abandon (exists-style early exit).
	if err := mx.Open(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := mx.Next(); !ok {
		t.Fatal("no tuple")
	}
	mx.Close()
	// The next evaluation with the same key must be a miss (full rerun).
	var got []float64
	drain(t, mx, func() { got = append(got, ex.M.Regs[1].Num()) })
	if len(got) != 3 {
		t.Errorf("abandoned recording was cached: %v", got)
	}
	if ex.Stats.MemoMisses != 2 {
		t.Errorf("misses = %d, want 2", ex.Stats.MemoMisses)
	}
}

func TestConcat(t *testing.T) {
	ex := newExec(2)
	mk := func(vals ...float64) Iter {
		var rows []map[int]nvm.Val
		for _, v := range vals {
			rows = append(rows, map[int]nvm.Val{0: nvm.NumVal(v)})
		}
		return &feedIter{ex: ex, rows: rows}
	}
	cc := &Concat{Ins: []Iter{mk(1, 2), mk(), mk(3)}}
	var got []float64
	drain(t, cc, func() { got = append(got, ex.M.Regs[0].Num()) })
	if len(got) != 3 || got[2] != 3 {
		t.Errorf("concat output %v", got)
	}
}

func TestSortIter(t *testing.T) {
	d, err := dom.ParseString("<a><b/><c/><d/></a>")
	if err != nil {
		t.Fatal(err)
	}
	ids := []dom.NodeID{}
	for id := dom.NodeID(1); int(id) <= d.NodeCount(); id++ {
		if d.Kind(id) == dom.KindElement && d.LocalName(id) != "a" {
			ids = append(ids, id)
		}
	}
	ex := newExec(2)
	rows := []map[int]nvm.Val{
		{0: nvm.NodeVal(dom.Node{Doc: d, ID: ids[2]})},
		{0: nvm.NodeVal(dom.Node{Doc: d, ID: ids[0]})},
		{0: nvm.NodeVal(dom.Node{Doc: d, ID: ids[1]})},
	}
	s := &SortIter{Ex: ex, In: &feedIter{ex: ex, rows: rows}, AttrReg: 0, SaveRegs: []int{0}}
	var got []dom.NodeID
	drain(t, s, func() { got = append(got, ex.M.Regs[0].Node().ID) })
	if got[0] != ids[0] || got[1] != ids[1] || got[2] != ids[2] {
		t.Errorf("sorted %v, want %v", got, ids)
	}
	if ex.Stats.Sorted != 3 {
		t.Errorf("Sorted stat = %d", ex.Stats.Sorted)
	}
}

func TestExistsJoin(t *testing.T) {
	d, _ := dom.ParseString("<r><x>1</x><x>2</x><y>2</y><y>3</y><z>9</z></r>")
	byVal := map[string]dom.NodeID{}
	for id := dom.NodeID(1); int(id) <= d.NodeCount(); id++ {
		if d.Kind(id) == dom.KindElement {
			byVal[d.LocalName(id)+d.StringValue(id)] = id
		}
	}
	ex := newExec(4)
	feed := func(reg int, names ...string) Iter {
		var rows []map[int]nvm.Val
		for _, n := range names {
			rows = append(rows, map[int]nvm.Val{reg: nvm.NodeVal(dom.Node{Doc: d, ID: byVal[n]})})
		}
		return &feedIter{ex: ex, rows: rows}
	}
	// x = y: pair (2,2) exists.
	j := &ExistsJoin{Ex: ex, L: feed(0, "x1", "x2"), R: feed(1, "y2", "y3"), LReg: 0, RReg: 1, Eq: true}
	if n := drain(t, j, nil); n != 1 {
		t.Errorf("eq join emitted %d, want 1 (only x=2 matches)", n)
	}
	// x = z: no pair.
	j2 := &ExistsJoin{Ex: ex, L: feed(0, "x1", "x2"), R: feed(1, "z9"), LReg: 0, RReg: 1, Eq: true}
	if n := drain(t, j2, nil); n != 0 {
		t.Errorf("eq join vs z emitted %d", n)
	}
	// x != y: pairs differ.
	j3 := &ExistsJoin{Ex: ex, L: feed(0, "x1"), R: feed(1, "y2", "y3"), LReg: 0, RReg: 1, Eq: false}
	if n := drain(t, j3, nil); n != 1 {
		t.Errorf("ne join emitted %d", n)
	}
	// x != x-same-value: single right value equal to left: no pair.
	j4 := &ExistsJoin{Ex: ex, L: feed(0, "x2"), R: feed(1, "y2"), LReg: 0, RReg: 1, Eq: false}
	if n := drain(t, j4, nil); n != 0 {
		t.Errorf("ne join same value emitted %d", n)
	}
	// Empty right side: nothing for either operator.
	j5 := &ExistsJoin{Ex: ex, L: feed(0, "x1"), R: feed(1), LReg: 0, RReg: 1, Eq: false}
	if n := drain(t, j5, nil); n != 0 {
		t.Errorf("ne join empty right emitted %d", n)
	}
}

func TestVarScanErrors(t *testing.T) {
	ex := newExec(1)
	ex.M.Vars = map[string]xval.Value{"s": xval.Str("not a node-set")}
	vs := &VarScan{Ex: ex, Name: "missing", OutReg: 0}
	if err := vs.Open(); err == nil {
		t.Error("unbound variable accepted")
	}
	vs2 := &VarScan{Ex: ex, Name: "s", OutReg: 0}
	if err := vs2.Open(); err == nil {
		t.Error("non-node-set variable accepted")
	}
}

func TestErrIter(t *testing.T) {
	e := NewErrIter(errors.New("boom"))
	if err := e.Open(); err == nil {
		t.Error("errIter.Open should fail")
	}
}

func TestUnnestMapAxis(t *testing.T) {
	d, _ := dom.ParseString("<a><b/><b/><c/></a>")
	ex := newExec(3)
	a := d.FirstChild(d.Root())
	ex.M.Regs[0] = nvm.NodeVal(dom.Node{Doc: d, ID: a})
	um := &UnnestMap{
		Ex: ex, In: &SingletonScan{}, InReg: 0, OutReg: 1, EpochReg: -1,
		Axis: dom.AxisChild, Test: dom.NodeTest{Kind: dom.TestName, Local: "b"},
	}
	var got []string
	drain(t, um, func() { got = append(got, d.LocalName(ex.M.Regs[1].Node().ID)) })
	if len(got) != 2 {
		t.Errorf("unnest child::b got %v", got)
	}
	if ex.Stats.AxisSteps != 3 || ex.Stats.Tuples != 2 {
		t.Errorf("stats %+v", ex.Stats)
	}
}
