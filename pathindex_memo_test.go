package natix

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"natix/internal/conformance"
	"natix/internal/gen"
	"natix/internal/interp"
	"natix/internal/sem"
	"natix/internal/store"
)

// The path-index match memo, end to end. A cached plan's access-path
// decision reads the summary match from the memo on the document's index,
// keyed per step chain. These tests pin that the memo never hands one
// chain's match to another chain or one document's to another, that shared
// plans stay race-free on a cold index, and that a warm run no longer pays
// the summary walk in allocations.

// interpAnswer renders the reference interpreter's answer.
func interpAnswer(t *testing.T, expr string, ns map[string]string, root Node) string {
	t.Helper()
	ref, err := interp.Compile(expr, &sem.Env{Namespaces: ns}, interp.Options{DedupSteps: true})
	if err != nil {
		t.Fatalf("interp compile %q: %v", expr, err)
	}
	v, err := ref.Eval(root, nil)
	if err != nil {
		t.Fatalf("interp eval %q: %v", expr, err)
	}
	return conformance.Render(v)
}

// TestPathIndexMemoClarkCollision: /descendant::a:b/child::x:* and
// /descendant::z:* with z bound to "a}b/child::{x" render the same chain in
// Clark notation. Run on one document, both choose the index, and each must
// answer as the interpreter does, before and after the memo is warm.
func TestPathIndexMemoClarkCollision(t *testing.T) {
	ns := map[string]string{"a": "a", "x": "x", "z": "a}b/child::{x"}
	var sb strings.Builder
	sb.WriteString(`<r xmlns:a="a" xmlns:x="x" xmlns:z="a}b/child::{x">`)
	for i := 0; i < 100; i++ {
		sb.WriteString(`<f><g/></f>`)
	}
	sb.WriteString(`<a:b><x:c/><x:d/></a:b><z:e/><z:f><x:c/></z:f><z:g/></r>`)
	d, err := ParseDocumentString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	root := RootNode(d)
	exprs := []string{"/descendant::a:b/child::x:*", "/descendant::z:*"}
	for round := 0; round < 2; round++ {
		for _, expr := range exprs {
			q := MustCompileWith(expr, Options{EnablePathIndex: true, Namespaces: ns})
			res, err := q.Run(root, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := conformance.Render(res.Value), interpAnswer(t, expr, ns, root); got != want {
				t.Fatalf("round %d %s:\n got %s\nwant %s", round, expr, got, want)
			}
			a, err := q.ExplainAnalyze(t.Context(), root, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(a.Tree, "PathIndexScan[") {
				t.Fatalf("%s: index not chosen, the row is vacuous:\n%s", expr, a.Tree)
			}
		}
	}
}

// TestPathIndexMemoPerDocument: one *Prepared over two documents whose
// summaries differ decides per document — the scan where the summary
// answers the chain, navigation where it refuses it — and keeps deciding
// so when the two alternate.
func TestPathIndexMemoPerDocument(t *testing.T) {
	selective, err := ParseDocumentString(pathIndexCorpus(200))
	if err != nil {
		t.Fatal(err)
	}
	nested, err := ParseDocumentString(`<r><a><a><b/><c/></a><b/></a><b/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	const expr = "//a/b"
	q := MustCompileWith(expr, Options{EnablePathIndex: true})
	cases := []struct {
		root Node
		line string
	}{
		{RootNode(selective), "PathIndexScan[descendant::a/child::b]"},
		{RootNode(nested), "navigation [descendant::a/child::b]  (no-match)"},
	}
	for round := 0; round < 2; round++ {
		for _, c := range cases {
			a, err := q.ExplainAnalyze(t.Context(), c.root, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(a.Tree, c.line) {
				t.Fatalf("round %d: analyze tree misses %q:\n%s", round, c.line, a.Tree)
			}
			res, err := q.Run(c.root, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := conformance.Render(res.Value), interpAnswer(t, expr, nil, c.root); got != want {
				t.Fatalf("round %d %q:\n got %s\nwant %s", round, c.line, got, want)
			}
		}
	}
}

// memoQueries are the root-anchored chains the concurrent memo test shares:
// chosen scans, a refused chain and a cost fallback, on one skewed corpus.
var memoQueries = []string{
	"//t31/@id", "//t7", "/xdoc/t0/t1", "//t1[t0]//t4/@id", "//t0/t2", "count(//t5)", "/xdoc/*",
}

// TestPathIndexMemoConcurrent: 8 goroutines share cached plans over one cold
// index — a MemDoc's own index, and the decoded index pages that 8
// clones of one store image share — so the first runs race to decode and
// to fill the memo. Every run must answer as navigation does.
func TestPathIndexMemoConcurrent(t *testing.T) {
	mem := gen.Generate(gen.Params{Elements: 1500, Fanout: 6, Tags: 32, Skew: 1.5})
	var img bytes.Buffer
	if err := store.WriteTo(&img, mem); err != nil {
		t.Fatal(err)
	}
	sd, err := store.OpenReaderAt(bytes.NewReader(img.Bytes()), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(memoQueries))
	shared := make([]*Prepared, len(memoQueries))
	for i, expr := range memoQueries {
		res, err := MustCompile(expr).Run(RootNode(mem), nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = conformance.Render(res.Value)
		shared[i] = MustCompileWith(expr, Options{EnablePathIndex: true})
	}
	const workers = 8
	roots := map[string]func(int) Node{
		"mem":   func(int) Node { return RootNode(mem) },
		"store": func(int) Node { return RootNode(sd.Clone()) },
	}
	for name, rootFor := range roots {
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			root := rootFor(w)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < 5; r++ {
					for k := range memoQueries {
						i := (k + w + r) % len(memoQueries)
						res, err := shared[i].Run(root, nil)
						if err != nil {
							errs <- err
							return
						}
						if got := conformance.Render(res.Value); got != want[i] {
							errs <- fmt.Errorf("%s worker %d: %s diverges from navigation", name, w, memoQueries[i])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}

// TestPathIndexWarmRunAllocs: a warm run of a cached plan with the index on
// allocates for its result and iterators, not for the summary match. The
// bounds are counts, not timings; before the memo the same runs made 32-33
// and 516-517 allocations. The count is the least of single warm runs: a GC
// empties the run-scratch pool, and the race detector drops pooled items at
// random, so a run now and then rebuilds its scratch.
func TestPathIndexWarmRunAllocs(t *testing.T) {
	mem := gen.Generate(gen.Params{Elements: 8000, Fanout: 6, Tags: 32, Skew: 1.5})
	var img bytes.Buffer
	if err := store.WriteTo(&img, mem); err != nil {
		t.Fatal(err)
	}
	sd, err := store.OpenReaderAt(bytes.NewReader(img.Bytes()), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		expr  string
		limit float64
	}{
		{"//t31/@id", 12},
		{"//t1[t0]//t4/@id", 40},
	}
	for _, c := range cases {
		q := MustCompileWith(c.expr, Options{EnablePathIndex: true})
		for _, d := range []Document{mem, sd} {
			root := RootNode(d)
			var runErr error
			run := func() {
				if _, err := q.Run(root, nil); err != nil {
					runErr = err
				}
			}
			allocs := testing.AllocsPerRun(1, run)
			for i := 0; i < 30; i++ {
				allocs = min(allocs, testing.AllocsPerRun(1, run))
			}
			if runErr != nil {
				t.Fatal(runErr)
			}
			t.Logf("%s on %T: %.0f allocations per warm run", c.expr, d, allocs)
			if allocs > c.limit {
				t.Errorf("%s on %T: %.0f allocations per warm run, limit %.0f", c.expr, d, allocs, c.limit)
			}
		}
	}
}
