package natix

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"natix/internal/conformance"
	"natix/internal/dom"
	"natix/internal/gen"
	"natix/internal/interp"
	"natix/internal/sem"
	"natix/internal/store"
	"natix/internal/xval"
)

// confEngine adapts the algebraic engine to the conformance suite.
type confEngine struct {
	name string
	opt  Options
	// batch overrides the plan's batch size (0 keeps the default).
	batch int
}

func (e confEngine) Name() string { return e.name }

// compile compiles expr under the configuration's options, with the
// namespace declarations ns, at its batch size.
func (e confEngine) compile(expr string, ns map[string]string) (*Prepared, error) {
	opt := e.opt
	opt.Namespaces = ns
	q, err := CompileWith(expr, opt)
	if err != nil {
		return nil, err
	}
	return setBatchSize(q, e.batch), nil
}

func (e confEngine) Eval(d dom.Document, expr string, vars map[string]xval.Value, ns map[string]string) (xval.Value, error) {
	q, err := e.compile(expr, ns)
	if err != nil {
		return xval.Value{}, err
	}
	res, err := q.Run(RootNode(d), vars)
	if err != nil {
		return xval.Value{}, err
	}
	return res.Value, nil
}

// engineConfigs are the translation configurations every conformance case
// must pass under.
var engineConfigs = []confEngine{
	{name: "improved", opt: Options{Mode: Improved}},
	{name: "canonical", opt: Options{Mode: Canonical}},
	{name: "improved-nomemo", opt: Options{Mode: Improved, DisableMemoX: true, DisablePredReorder: true}},
	{name: "improved-nostack", opt: Options{Mode: Improved, DisableStacked: true, DisableDupElimPush: true}},
	// Subtest names are stable test IDs, so the next two rows keep names
	// from before the sequence analysis became the only rule. The first
	// runs it over the unrewritten // expansion, whose child step after a
	// nested descendant-or-self step is duplicate-free but unordered; the
	// second gives the path-index matcher chains without a pushed Π^D.
	{name: "improved-seqprops", opt: Options{Mode: Improved, DisablePathRewrite: true}},
	{name: "improved-index", opt: Options{Mode: Improved, EnablePathIndex: true, DisableDupElimPush: true}},
	{name: "improved-pathindex", opt: Options{Mode: Improved, EnablePathIndex: true}},
	{name: "improved-pathindex-canon", opt: Options{Mode: Canonical, EnablePathIndex: true}},
	// Adversarial batch sizes: 1 refills per node, 16 is misaligned with
	// every operator fan-out.
	{name: "improved-batch1", opt: Options{Mode: Improved}, batch: 1},
	{name: "improved-batch16", opt: Options{Mode: Improved}, batch: 16},
}

func TestConformance(t *testing.T) {
	for _, cfg := range engineConfigs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			conformance.Run(t, cfg)
		})
	}
}

func TestExplain(t *testing.T) {
	q := MustCompile("//a/descendant::b[position() = last()]/@id")
	alg := q.ExplainAlgebra()
	for _, want := range []string{"Υ", "Tmp^cs", "Π^D", "σ"} {
		if !contains(alg, want) {
			t.Errorf("ExplainAlgebra missing %q:\n%s", want, alg)
		}
	}
	if q.ExplainIR() == "" {
		t.Error("empty IR explanation")
	}
	// Scalar query explanation.
	q2 := MustCompile("count(//a)")
	if q2.Algebra() != nil {
		t.Error("scalar query should have no top-level plan")
	}
	if !contains(q2.ExplainAlgebra(), "count") {
		t.Errorf("scalar explain: %s", q2.ExplainAlgebra())
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestResultHelpers(t *testing.T) {
	d, err := ParseDocumentString(`<r><b/><a/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	q := MustCompile("/r/a | /r/b")
	res, err := q.Run(RootNode(d), nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes, ok := res.SortedNodeSet()
	if !ok || len(nodes) != 2 || nodes[0].LocalName() != "b" || nodes[1].LocalName() != "a" {
		t.Errorf("SortedNodeSet: %v, %v", nodes, ok)
	}
	scalar, err := MustCompile("1 + 1").Run(RootNode(d), nil)
	if err != nil {
		t.Fatal(err)
	}
	if nodes, ok := scalar.SortedNodeSet(); ok || nodes != nil {
		t.Errorf("SortedNodeSet on scalar: %v, %v", nodes, ok)
	}
}

func TestCompileErrors(t *testing.T) {
	for _, expr := range []string{"", "1 +", "foo(", "count()", "p:x"} {
		if _, err := Compile(expr); err == nil {
			t.Errorf("Compile(%q): expected error", expr)
		}
	}
}

func ExampleCompile() {
	doc, _ := ParseDocumentString(`<lib><book>A</book><book>B</book></lib>`)
	q := MustCompile("/lib/book[last()]")
	res, _ := q.Run(RootNode(doc), nil)
	nodes, _ := res.SortedNodeSet()
	for _, n := range nodes {
		fmt.Println(n.StringValue())
	}
	// Output: B
}

// storeEngine runs the improved engine over a page-backed store image of
// each conformance document, proving the suite holds when navigation goes
// through the buffer manager.
type storeEngine struct {
	mu    sync.Mutex
	cache map[uint64]*store.Doc
}

func (e *storeEngine) Name() string { return "improved-store" }

func (e *storeEngine) Eval(d dom.Document, expr string, vars map[string]xval.Value, ns map[string]string) (xval.Value, error) {
	e.mu.Lock()
	if e.cache == nil {
		e.cache = map[uint64]*store.Doc{}
	}
	sd, ok := e.cache[d.DocID()]
	if !ok {
		var buf bytes.Buffer
		if err := store.WriteTo(&buf, d); err != nil {
			e.mu.Unlock()
			return xval.Value{}, err
		}
		var err error
		sd, err = store.OpenReaderAt(bytes.NewReader(buf.Bytes()), store.Options{BufferPages: 8})
		if err != nil {
			e.mu.Unlock()
			return xval.Value{}, err
		}
		e.cache[d.DocID()] = sd
	}
	e.mu.Unlock()
	q, err := CompileWith(expr, Options{Namespaces: ns})
	if err != nil {
		return xval.Value{}, err
	}
	res, err := q.Run(RootNode(sd), vars)
	if err != nil {
		return xval.Value{}, err
	}
	// Node handles live in the store document; re-anchor them onto the
	// original in-memory document for comparison (IDs are identical by
	// construction).
	return reanchor(res.Value, d), nil
}

// reanchor moves the nodes of v onto the document d, which must number its
// nodes like theirs (a store image and its source).
func reanchor(v xval.Value, d dom.Document) xval.Value {
	if !v.IsNodeSet() {
		return v
	}
	nodes := make([]dom.Node, len(v.Nodes))
	for i, n := range v.Nodes {
		nodes[i] = dom.Node{Doc: d, ID: n.ID}
	}
	return xval.NodeSet(nodes)
}

func TestConformanceStoreBacked(t *testing.T) {
	conformance.Run(t, &storeEngine{})
}

// TestConformanceWindows runs the positional-window edge cases under every
// configuration and on the store.
func TestConformanceWindows(t *testing.T) {
	for _, cfg := range engineConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			conformance.RunCases(t, cfg, conformance.WindowCases)
		})
	}
	t.Run("improved-store", func(t *testing.T) {
		conformance.RunCases(t, &storeEngine{}, conformance.WindowCases)
	})
}

// TestCrossDocumentVariables: node-set variables may hold nodes of another
// document; set operations and ordering must stay coherent.
func TestCrossDocumentVariables(t *testing.T) {
	d1, _ := ParseDocumentString(`<r><a>1</a></r>`)
	d2, _ := ParseDocumentString(`<r><b>2</b><b>3</b></r>`)
	q2 := MustCompile("//b")
	res2, err := q2.Run(RootNode(d2), nil)
	if err != nil {
		t.Fatal(err)
	}
	vars := map[string]Value{"other": NodeSet(res2.Value.Nodes)}

	q := MustCompile("$other | //a")
	res, err := q.Run(RootNode(d1), vars)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Value.Nodes) != 3 {
		t.Fatalf("cross-doc union size %d", len(res.Value.Nodes))
	}
	sorted, _ := res.SortedNodeSet()
	for i := 1; i < len(sorted); i++ {
		if dom.CompareOrder(sorted[i-1], sorted[i]) >= 0 {
			t.Fatal("cross-document order not antisymmetric")
		}
	}
	// Navigation from foreign nodes works too.
	q3 := MustCompile("count($other/..)")
	res3, err := q3.Run(RootNode(d1), vars)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Value.N != 1 {
		t.Errorf("parents of $other = %v", res3.Value.N)
	}
}

// TestTwoDocumentVisitedStep: $v/ancestor::* runs as a visited-set step
// with one set per document. The two documents are identical, so their
// nodes share NodeIDs and only the DocID tells them apart: the answer must
// hold every ancestor in both, as it does with the Π^D only at the end of
// the path and under the canonical translation.
func TestTwoDocumentVisitedStep(t *testing.T) {
	a := gen.Generate(gen.Params{Elements: 300, Fanout: 3})
	b := gen.Generate(gen.Params{Elements: 300, Fanout: 3})
	var ctxs []Node
	want := map[dom.NodeID]bool{}
	for i, id := range []dom.NodeID{250, 17, 250, 401, 90, 17} {
		ctxs = append(ctxs, Node{Doc: a, ID: id}, Node{Doc: b, ID: id})
		if i%2 == 0 {
			ctxs = append(ctxs, Node{Doc: b, ID: id})
		}
		for p := a.Parent(id); p != dom.NilNode; p = a.Parent(p) {
			if a.Kind(p) == dom.KindElement {
				want[p] = true
			}
		}
	}
	vars := map[string]Value{"v": NodeSet(ctxs)}
	const expr = "$v/ancestor::*"
	q := MustCompile(expr)
	if !strings.Contains(q.ExplainPhysical(), "visited-set") {
		t.Fatalf("%s has no visited-set step:\n%s", expr, q.ExplainPhysical())
	}
	res, err := q.Run(RootNode(a), vars)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Value.Nodes) != 2*len(want) {
		t.Fatalf("%d ancestors, want %d in each of two documents", len(res.Value.Nodes), len(want))
	}
	for _, opt := range []Options{{DisableDupElimPush: true}, {Mode: Canonical}} {
		other, err := MustCompileWith(expr, opt).Run(RootNode(a), vars)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := conformance.Render(res.Value), conformance.Render(other.Value); got != want {
			t.Errorf("%+v: %s, fused %s", opt, want, got)
		}
	}

	// $v | $w: the union's Π^D is not fused, so DupElim filters it through
	// its own per-document sets. Duplicates sit inside each variable and
	// across the two; each distinct (document, node) must come out once.
	var w []Node
	for _, id := range []dom.NodeID{17, 5, 90, 333, 5} {
		w = append(w, Node{Doc: b, ID: id}, Node{Doc: a, ID: id})
	}
	vars["w"] = NodeSet(w)
	distinct := map[Node]bool{}
	for _, n := range append(append([]Node(nil), ctxs...), w...) {
		distinct[n] = true
	}
	// keys renders nodes as document:id in document order.
	keys := func(ns []Node) string {
		ns = append([]Node(nil), ns...)
		sort.Slice(ns, func(i, j int) bool { return dom.CompareOrder(ns[i], ns[j]) < 0 })
		var sb strings.Builder
		for _, n := range ns {
			fmt.Fprintf(&sb, " %d:%d", n.Doc.DocID(), n.ID)
		}
		return sb.String()
	}
	const union = "$v | $w"
	uref, err := interp.Compile(union, &sem.Env{}, interp.Options{DedupSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	uwant, err := uref.Eval(RootNode(a), vars)
	if err != nil {
		t.Fatal(err)
	}
	if len(uwant.Nodes) != len(distinct) {
		t.Fatalf("interpreter: %d nodes, want %d distinct", len(uwant.Nodes), len(distinct))
	}
	for _, size := range []int{0, 1, 16} {
		q := setBatchSize(MustCompile(union), size)
		plan := q.ExplainPhysical()
		if !strings.Contains(plan, "Π^D") || strings.Contains(plan, "<fused") {
			t.Fatalf("%s has no unfused Π^D:\n%s", union, plan)
		}
		res, err := q.Run(RootNode(a), vars)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[Node]bool{}
		for _, n := range res.Value.Nodes {
			if seen[n] || !distinct[n] {
				t.Errorf("batch %d: %v twice or not in $v | $w", size, n)
			}
			seen[n] = true
		}
		if got := keys(res.Value.Nodes); got != keys(uwant.Nodes) {
			t.Errorf("batch %d:\n got%s\nwant%s", size, got, keys(uwant.Nodes))
		}
	}
}
