package interp

import (
	"testing"

	"natix/internal/conformance"
	"natix/internal/dom"
	"natix/internal/sem"
	"natix/internal/xval"
)

// engine adapts Interp to the conformance suite.
type engine struct {
	name string
	opt  Options
}

func (e engine) Name() string { return e.name }

func (e engine) Eval(d dom.Document, expr string, vars map[string]xval.Value, ns map[string]string) (xval.Value, error) {
	q, err := Compile(expr, &sem.Env{Namespaces: ns}, e.opt)
	if err != nil {
		return xval.Value{}, err
	}
	return q.Eval(dom.Node{Doc: d, ID: d.Root()}, vars)
}

func TestConformanceDedup(t *testing.T) {
	conformance.Run(t, engine{name: "interp-dedup", opt: Options{DedupSteps: true}})
}

func TestConformanceNaive(t *testing.T) {
	conformance.Run(t, engine{name: "interp-naive", opt: Options{DedupSteps: false}})
}

// TestConformanceWindows holds the interpreter, the engine's reference, to
// the hand-computed answers of the positional-window edge cases.
func TestConformanceWindows(t *testing.T) {
	conformance.RunCases(t, engine{name: "interp-dedup", opt: Options{DedupSteps: true}}, conformance.WindowCases)
}

func TestRelativeContext(t *testing.T) {
	d := conformance.Doc(t, "basic")
	// Find element a#5 and evaluate relative paths from it.
	var a5 dom.NodeID
	for id := dom.NodeID(1); int(id) <= d.NodeCount(); id++ {
		if d.Kind(id) == dom.KindElement && d.LocalName(id) == "a" {
			a5 = id // last one wins
		}
	}
	q, err := Compile("b", nil, Options{DedupSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	v, err := q.Eval(dom.Node{Doc: d, ID: a5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := conformance.Render(v); got != "nodes:b#6" {
		t.Errorf("relative b from a#5: %s", got)
	}
	// Absolute paths ignore the context position.
	q2, _ := Compile("/root/d", nil, Options{DedupSteps: true})
	v2, err := q2.Eval(dom.Node{Doc: d, ID: a5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := conformance.Render(v2); got != "nodes:d#7" {
		t.Errorf("absolute from a#5: %s", got)
	}
}

// TestNaiveMatchesDedup: both interpreter variants agree on results (the
// naive one is only slower).
func TestNaiveMatchesDedup(t *testing.T) {
	d := conformance.Doc(t, "deep")
	queries := []string{
		"/a/descendant::*/ancestor::*/descendant::*/@id",
		"/a/descendant::*/ancestor::*/ancestor::*/@id",
		"//*/..//*",
		"count(//*//*)",
	}
	for _, expr := range queries {
		qd, err := Compile(expr, nil, Options{DedupSteps: true})
		if err != nil {
			t.Fatal(err)
		}
		qn, err := Compile(expr, nil, Options{DedupSteps: false})
		if err != nil {
			t.Fatal(err)
		}
		root := dom.Node{Doc: d, ID: d.Root()}
		vd, err := qd.Eval(root, nil)
		if err != nil {
			t.Fatal(err)
		}
		vn, err := qn.Eval(root, nil)
		if err != nil {
			t.Fatal(err)
		}
		if conformance.Render(vd) != conformance.Render(vn) {
			t.Errorf("%q: dedup=%s naive=%s", expr, conformance.Render(vd), conformance.Render(vn))
		}
	}
}

func TestUnboundVariable(t *testing.T) {
	d := conformance.Doc(t, "basic")
	q, err := Compile("$nope", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Eval(dom.Node{Doc: d, ID: d.Root()}, nil); err == nil {
		t.Error("expected unbound variable error")
	}
}

func TestNodeSetVariable(t *testing.T) {
	d := conformance.Doc(t, "basic")
	// Bind $ns to //b and navigate from it.
	qb, _ := Compile("//b", nil, Options{DedupSteps: true})
	root := dom.Node{Doc: d, ID: d.Root()}
	bs, err := qb.Eval(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Compile("$ns/..", nil, Options{DedupSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	v, err := q.Eval(root, map[string]xval.Value{"ns": bs})
	if err != nil {
		t.Fatal(err)
	}
	if got := conformance.Render(v); got != "nodes:a#1 a#5" {
		t.Errorf("$ns/.. = %s", got)
	}
	// Using a scalar variable as a path base fails at runtime.
	q2, _ := Compile("$ns/..", nil, Options{DedupSteps: true})
	if _, err := q2.Eval(root, map[string]xval.Value{"ns": xval.Num(1)}); err == nil {
		t.Error("expected error for scalar path base")
	}
}
