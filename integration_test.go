package natix

import (
	"bytes"
	"testing"

	"natix/internal/conformance"
	"natix/internal/gen"
	"natix/internal/store"
)

// TestStoreBackedEvaluation runs queries against the page-backed store and
// checks the results match the in-memory document, and that evaluation
// actually exercised the buffer manager.
func TestStoreBackedEvaluation(t *testing.T) {
	mem := gen.Generate(gen.Params{Elements: 500, Fanout: 6})
	var buf bytes.Buffer
	if err := store.WriteTo(&buf, mem); err != nil {
		t.Fatal(err)
	}
	sd, err := store.OpenReaderAt(bytes.NewReader(buf.Bytes()), store.Options{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"/child::xdoc/descendant::*/ancestor::*/descendant::*/@id",
		"//e[@id = '42']",
		"count(//*)",
		"/xdoc/e[position() = last()]/@id",
		"sum(//e/@id)",
		"//e[@id mod 100 = 0]/ancestor::*",
	}
	for _, expr := range queries {
		q := MustCompile(expr)
		rm, err := q.Run(RootNode(mem), nil)
		if err != nil {
			t.Fatalf("%q on memdoc: %v", expr, err)
		}
		rs, err := q.Run(RootNode(sd), nil)
		if err != nil {
			t.Fatalf("%q on store: %v", expr, err)
		}
		// Node handles differ across documents; compare rendered shapes.
		if got, want := conformance.Render(rs.Value), conformance.Render(rm.Value); got != want {
			t.Errorf("%q: store %s != mem %s", expr, got, want)
		}
	}
	if st := sd.BufferStats(); st.Hits+st.Misses == 0 {
		t.Error("evaluation did not touch the buffer manager")
	}
}

// TestScalingSmoke checks the headline behaviour: the improved translation
// evaluates the paper's query 1 on a mid-sized document, and the result
// matches across all engine configurations. Its work at 2000 elements is
// the fig5/q1 row of the plan digest (internal/difftest).
func TestScalingSmoke(t *testing.T) {
	d := gen.Generate(gen.Params{Elements: 4000, Fanout: 6})
	const q1 = "/child::xdoc/descendant::*/ancestor::*/descendant::*/@id"

	res, err := MustCompile(q1).Run(RootNode(d), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Value.Nodes) != 3999 {
		// Every element except the root is a descendant of an ancestor of
		// a descendant of xdoc; each contributes its id attribute.
		t.Errorf("query 1 result size %d, want 3999", len(res.Value.Nodes))
	}

	// The same query under canonical translation, and with the Π^D only at
	// the end of the path, gives the same answer.
	small := gen.Generate(gen.Params{Elements: 300, Fanout: 6})
	a, err := MustCompile(q1).Run(RootNode(small), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{{Mode: Canonical}, {DisableDupElimPush: true}} {
		qc, err := CompileWith(q1, opt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := qc.Run(RootNode(small), nil)
		if err != nil {
			t.Fatal(err)
		}
		if conformance.Render(a.Value) != conformance.Render(b.Value) {
			t.Errorf("%+v and improved disagree on query 1", opt)
		}
	}
}

// TestPolynomialWorstCase pins the paper's section 4 headline: with the
// improved translation, the work (tuples produced by unnest maps) on the
// duplicate-generating query 1 grows polynomially in the document size.
// Tuple counters are deterministic, so no timing flakiness.
func TestPolynomialWorstCase(t *testing.T) {
	const q1 = "/child::xdoc/descendant::*/ancestor::*/descendant::*/@id"
	q := MustCompile(q1)
	tuples := func(n int) float64 {
		d := gen.Generate(gen.Params{Elements: n, Fanout: 6})
		res, err := q.Run(RootNode(d), nil)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Stats.Tuples)
	}
	t200, t400, t800 := tuples(200), tuples(400), tuples(800)
	// Doubling the document must grow the work by at most ~n^2 ·
	// polylog slack; an exponential blowup grows it by orders of
	// magnitude (the naive interpreter at these sizes produces billions
	// of intermediate nodes).
	const bound = 6 // > 2^2, < any exponential doubling ratio
	if r := t400 / t200; r > bound {
		t.Errorf("tuples(400)/tuples(200) = %.1f, superpolynomial?", r)
	}
	if r := t800 / t400; r > bound {
		t.Errorf("tuples(800)/tuples(400) = %.1f, superpolynomial?", r)
	}
	t.Logf("q1 tuples: n=200: %.0f, n=400: %.0f, n=800: %.0f", t200, t400, t800)
}

// TestMemoXActuallyHits pins that the section 4.2.2 memoization engages on
// its motivating query shape.
func TestMemoXActuallyHits(t *testing.T) {
	d := gen.Generate(gen.Params{Elements: 300, Fanout: 2})
	q := MustCompile("/descendant::e[count(descendant::e/following::e) >= 0]")
	res, err := q.Run(RootNode(d), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MemoHits == 0 {
		t.Errorf("no memo hits on the section 4.2.2 query shape: %+v", res.Stats)
	}
	// Disabled, the same query does the work every time.
	q2, err := CompileWith("/descendant::e[count(descendant::e/following::e) >= 0]",
		Options{DisableMemoX: true})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := q2.Run(RootNode(d), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.MemoHits != 0 {
		t.Errorf("memo hits with MemoX disabled: %+v", res2.Stats)
	}
	if res2.Stats.AxisSteps <= res.Stats.AxisSteps {
		t.Errorf("memoization did not reduce axis work: %d vs %d",
			res.Stats.AxisSteps, res2.Stats.AxisSteps)
	}
}
