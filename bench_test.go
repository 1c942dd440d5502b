package natix_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"natix"
	"natix/internal/bench"
	"natix/internal/dom"
)

// The benchmarks below regenerate the paper's evaluation exhibits:
//
//	BenchmarkFig6..BenchmarkFig9 — queries 1-4 of Fig. 5 over generated
//	documents (section 6.2.1), comparing the algebraic engine over the
//	page-backed store ("natix"), the same plans over the in-memory
//	document ("natix-mem"), and the main-memory interpreter baselines
//	("interp" = Xalan/xsltproc stand-in, "naive" = no intermediate
//	duplicate elimination).
//
//	BenchmarkFig10 — the DBLP query table (section 6.2.2) over the
//	synthetic DBLP document.
//
//	BenchmarkAblation* — the design-choice studies of DESIGN.md.
//
// Default scales are kept moderate so the full suite finishes in minutes;
// cmd/natix-bench runs the paper's complete sweeps (up to 80000 elements)
// and prints the series.

// benchSizes are the default generated-document scales for `go test -bench`.
var benchSizes = []int{2000, 8000}

// benchEngines compares in every figure benchmark: each natix backend plus
// the interpreter. The naive interpreter appears only at the smallest scale
// (its runtime explodes; see fig. curves "stopping early" in the paper).
var benchEngines = []string{bench.EngineNatix, bench.EngineNatixMem, bench.EngineInterp}

func benchFigure(b *testing.B, figID string) {
	var spec bench.QuerySpec
	for _, q := range bench.Fig5 {
		if bench.FigForQuery(q.ID) == figID {
			spec = q
		}
	}
	for _, size := range benchSizes {
		mem := bench.GeneratedDoc(size)
		stored, err := bench.StoreImage(fmt.Sprintf("gen/%d", size), mem, 0)
		if err != nil {
			b.Fatal(err)
		}
		engines := benchEngines
		if size == benchSizes[0] {
			engines = append(append([]string{}, engines...), bench.EngineNaive)
		}
		for _, engine := range engines {
			r, err := bench.NewRunner(engine, spec.XPath, mem, stored)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/n=%d", engine, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := r.Execute(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig6 regenerates Fig. 6 (query 1: desc/anc/desc).
func BenchmarkFig6(b *testing.B) { benchFigure(b, "fig6") }

// BenchmarkFig7 regenerates Fig. 7 (query 2: desc/pre-sib/fol).
func BenchmarkFig7(b *testing.B) { benchFigure(b, "fig7") }

// BenchmarkFig8 regenerates Fig. 8 (query 3: desc/anc/anc).
func BenchmarkFig8(b *testing.B) { benchFigure(b, "fig8") }

// BenchmarkFig9 regenerates Fig. 9 (query 4: child/par/desc).
func BenchmarkFig9(b *testing.B) { benchFigure(b, "fig9") }

// benchFig10Pubs is the synthetic-DBLP scale for `go test -bench`.
const benchFig10Pubs = 20000

// BenchmarkFig10 regenerates the DBLP table of Fig. 10.
func BenchmarkFig10(b *testing.B) {
	mem := bench.DBLPDoc(benchFig10Pubs)
	stored, err := bench.StoreImage(fmt.Sprintf("dblp/%d", benchFig10Pubs), mem, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, spec := range bench.Fig10 {
		for _, engine := range []string{bench.EngineNatix, bench.EngineInterp} {
			r, err := bench.NewRunner(engine, spec.XPath, mem, stored)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%s", spec.ID, engine), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := r.Execute(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchAblation runs one entry of bench.Ablations as sub-benchmarks.
func benchAblation(b *testing.B, id string) {
	for _, ab := range bench.Ablations {
		if ab.ID != id {
			continue
		}
		mem := bench.AblationDoc(ab)
		for _, v := range ab.Vars {
			v := v
			b.Run(v.Name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					q, err := natix.CompileWith(ab.Query, v.Opt)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := q.Run(natix.RootNode(mem), nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		return
	}
	b.Fatalf("unknown ablation %q", id)
}

// BenchmarkAblationStacked compares the stacked translation (section 4.2.1)
// against the canonical d-join chain.
func BenchmarkAblationStacked(b *testing.B) { benchAblation(b, "stacked") }

// BenchmarkAblationDupElim compares pushed duplicate elimination
// (section 4.1) against a single final one.
func BenchmarkAblationDupElim(b *testing.B) { benchAblation(b, "dupelim") }

// BenchmarkAblationMemoX compares memoized inner paths (section 4.2.2)
// against re-evaluation.
func BenchmarkAblationMemoX(b *testing.B) { benchAblation(b, "memox") }

// BenchmarkAblationPredReorder compares cheap-first predicate evaluation
// with χ^mat (section 4.3.2) against source order.
func BenchmarkAblationPredReorder(b *testing.B) { benchAblation(b, "predreorder") }

// BenchmarkAblationSmartAgg compares exists() early exit (section 5.2.5)
// against full aggregation.
func BenchmarkAblationSmartAgg(b *testing.B) { benchAblation(b, "smartagg") }

// BenchmarkAblationPathRewrite compares the future-work // merge rewrite
// (section 7) against the plain abbreviation expansion.
func BenchmarkAblationPathRewrite(b *testing.B) { benchAblation(b, "pathrewrite") }

// BenchmarkAblationPathIndex compares the future-work structural path
// index scan (section 7) against the descendant traversal for //name
// queries.
func BenchmarkAblationPathIndex(b *testing.B) { benchAblation(b, "pathindex") }

// BenchmarkAblationBuffer sweeps the buffer manager capacity for query 1
// over the page-backed store.
func BenchmarkAblationBuffer(b *testing.B) {
	const elements = 8000
	mem := bench.GeneratedDoc(elements)
	for _, pages := range []int{4, 64, 1024} {
		sd, err := bench.StoreImage(fmt.Sprintf("gen/%d", elements), mem, pages)
		if err != nil {
			b.Fatal(err)
		}
		q := natix.MustCompile(bench.Fig5[0].XPath)
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := q.Run(natix.RootNode(sd), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// governorLimits are generous budgets that never trip: the governed runs
// below pay for the accounting, not for failures.
var governorLimits = natix.Limits{
	MaxTuples: 1 << 40,
	MaxBytes:  1 << 50,
	MaxSteps:  1 << 40,
}

// BenchmarkGovernorOverhead compares each Fig. 5 query bare (Run, no
// limits) against the fully governed path (RunContext with an armed
// deadline and every budget set). The delta is the price of the
// cancellation/limit checks; TestGovernorAddsNoAllocs holds its
// allocations and work to the bare path's.
func BenchmarkGovernorOverhead(b *testing.B) {
	mem := bench.GeneratedDoc(2000)
	root := natix.RootNode(mem)
	for _, spec := range bench.Fig5 {
		bare := natix.MustCompile(spec.XPath)
		governed, err := natix.CompileWith(spec.XPath, natix.Options{Limits: governorLimits})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(spec.ID+"/bare", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bare.Run(root, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(spec.ID+"/governed", func(b *testing.B) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
			defer cancel()
			for i := 0; i < b.N; i++ {
				if _, err := governed.RunContext(ctx, root, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestGovernorAddsNoAllocs is the count behind BenchmarkGovernorOverhead:
// on each Fig. 5 query at 2000 elements, the fully governed path allocates
// exactly what the bare path allocates and does exactly the same work.
func TestGovernorAddsNoAllocs(t *testing.T) {
	root := natix.RootNode(bench.GeneratedDoc(2000))
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	// The least of several one-run samples: the race detector drops pooled
	// buffers at random, which only ever adds allocations.
	allocs := func(run func()) float64 {
		n := testing.AllocsPerRun(1, run)
		for i := 0; i < 20; i++ {
			n = min(n, testing.AllocsPerRun(1, run))
		}
		return n
	}
	for _, spec := range bench.Fig5 {
		bare := natix.MustCompile(spec.XPath)
		governed := natix.MustCompileWith(spec.XPath, natix.Options{Limits: governorLimits})
		var bareRes, govRes *natix.Result
		var err error
		bareAllocs := allocs(func() {
			if bareRes, err = bare.Run(root, nil); err != nil {
				t.Fatal(err)
			}
		})
		govAllocs := allocs(func() {
			if govRes, err = governed.RunContext(ctx, root, nil); err != nil {
				t.Fatal(err)
			}
		})
		if govAllocs != bareAllocs || govRes.Stats != bareRes.Stats {
			t.Errorf("%s: governed %v allocs, stats %+v; bare %v allocs, stats %+v",
				spec.ID, govAllocs, govRes.Stats, bareAllocs, bareRes.Stats)
		}
	}
}

// BenchmarkCompile measures the compiler pipeline alone (parse through
// code generation).
func BenchmarkCompile(b *testing.B) {
	exprs := map[string]string{
		"simple":     "/a/b/c",
		"positional": "/dblp/article[position() = last() - 10]/title",
		"nested":     "//a[b[c = 'x'] and count(descendant::d) > 2]/@id",
	}
	for name, expr := range exprs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := natix.Compile(expr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreNavigation measures raw page-backed navigation: a full
// preorder traversal through the buffer manager versus the in-memory arena.
func BenchmarkStoreNavigation(b *testing.B) {
	mem := bench.GeneratedDoc(8000)
	sd, err := bench.StoreImage("gen/8000", mem, 0)
	if err != nil {
		b.Fatal(err)
	}
	walk := func(d dom.Document) int {
		n := 0
		var rec func(id dom.NodeID)
		rec = func(id dom.NodeID) {
			n++
			for c := d.FirstChild(id); c != dom.NilNode; c = d.NextSibling(c) {
				rec(c)
			}
		}
		rec(d.Root())
		return n
	}
	b.Run("store", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if walk(sd) == 0 {
				b.Fatal("empty walk")
			}
		}
	})
	b.Run("mem", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if walk(mem) == 0 {
				b.Fatal("empty walk")
			}
		}
	})
	b.Run("store-cold-small-buffer", func(b *testing.B) {
		cold, err := bench.StoreImage("gen/8000", mem, 2)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if walk(cold) == 0 {
				b.Fatal("empty walk")
			}
		}
	})
}
