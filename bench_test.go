package natix_test

import (
	"context"
	"fmt"
	"os"
	"runtime"
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

// benchEngines compares in every figure benchmark: each natix backend in
// its default (batched) and scalar-protocol form, plus the interpreter.
// The naive interpreter appears only at the smallest scale (its runtime
// explodes; see fig. curves "stopping early" in the paper).
var benchEngines = []string{
	bench.EngineNatix, bench.EngineNatixScalar,
	bench.EngineNatixMem, bench.EngineNatixMemScalar,
	bench.EngineInterp,
}

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

// BenchmarkAblationNameIndex compares the future-work element-name index
// scan (section 7) against the descendant traversal for //name queries.
func BenchmarkAblationNameIndex(b *testing.B) { benchAblation(b, "nameindex") }

// BenchmarkAblationSeqProps compares the per-axis ppd rule (section 4.1)
// against the deferred-work sequence analysis ([13]) that drops provably
// unnecessary duplicate eliminations and sorts.
func BenchmarkAblationSeqProps(b *testing.B) { benchAblation(b, "seqprops") }

// BenchmarkAblationBatch sweeps the batch size of the batched execution
// protocol (scalar, 1, 16, 64, 256, 1024) on the Fig. 6 hot chain.
func BenchmarkAblationBatch(b *testing.B) { benchAblation(b, "batch") }

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
// cancellation/limit checks; the guard below asserts it stays under 2 %.
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

// TestGovernorOverheadGuard fails if the governed path is more than 2 %
// slower than the bare path across the Fig. 5 queries. Timing-sensitive,
// so it only runs when explicitly requested:
//
//	NATIX_PERF_GUARD=1 go test -run TestGovernorOverheadGuard
func TestGovernorOverheadGuard(t *testing.T) {
	if os.Getenv("NATIX_PERF_GUARD") == "" {
		t.Skip("set NATIX_PERF_GUARD=1 to run the governor overhead guard")
	}
	mem := bench.GeneratedDoc(2000)
	root := natix.RootNode(mem)

	// best-of-N per engine, summed over the query set, to damp scheduler
	// noise; the budget is a ratio on the totals.
	const rounds = 5
	var bareTotal, governedTotal float64
	for _, spec := range bench.Fig5 {
		bare := natix.MustCompile(spec.XPath)
		governed, err := natix.CompileWith(spec.XPath, natix.Options{Limits: governorLimits})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		best := func(run func() error) float64 {
			min := -1.0
			for r := 0; r < rounds; r++ {
				res := testing.Benchmark(func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if err := run(); err != nil {
							b.Fatal(err)
						}
					}
				})
				if ns := float64(res.NsPerOp()); min < 0 || ns < min {
					min = ns
				}
			}
			return min
		}
		bareNs := best(func() error { _, err := bare.Run(root, nil); return err })
		governedNs := best(func() error { _, err := governed.RunContext(ctx, root, nil); return err })
		cancel()
		t.Logf("%s: bare %.0fns governed %.0fns (%+.2f%%)",
			spec.ID, bareNs, governedNs, 100*(governedNs-bareNs)/bareNs)
		bareTotal += bareNs
		governedTotal += governedNs
	}
	if governedTotal > bareTotal*1.02 {
		t.Errorf("governor overhead %.2f%% exceeds 2%% (bare %.0fns, governed %.0fns)",
			100*(governedTotal-bareTotal)/bareTotal, bareTotal, governedTotal)
	}
}

// TestBatchSpeedupGuard fails if batched execution is slower than the
// scalar protocol on the Fig. 5 hot chains (in-memory backend, where the
// protocol cost dominates navigation). Batching must never be a
// pessimization; the 5 % tolerance absorbs timer noise. Timing-sensitive,
// so it only runs when explicitly requested:
//
//	NATIX_PERF_GUARD=1 go test -run TestBatchSpeedupGuard
func TestBatchSpeedupGuard(t *testing.T) {
	if os.Getenv("NATIX_PERF_GUARD") == "" {
		t.Skip("set NATIX_PERF_GUARD=1 to run the batch speedup guard")
	}
	mem := bench.GeneratedDoc(2000)
	root := natix.RootNode(mem)

	const rounds = 5
	best := func(q *natix.Prepared) float64 {
		min := -1.0
		for r := 0; r < rounds; r++ {
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := q.Run(root, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
			if ns := float64(res.NsPerOp()); min < 0 || ns < min {
				min = ns
			}
		}
		return min
	}
	var batchedTotal, scalarTotal float64
	for _, spec := range bench.Fig5 {
		batched := natix.MustCompile(spec.XPath)
		scalar := natix.MustCompileWith(spec.XPath, natix.Options{Batch: natix.BatchOff})
		bNs, sNs := best(batched), best(scalar)
		t.Logf("%s: batched %.0fns scalar %.0fns (%.2fx)", spec.ID, bNs, sNs, sNs/bNs)
		batchedTotal += bNs
		scalarTotal += sNs
	}
	if batchedTotal > scalarTotal*1.05 {
		t.Errorf("batched execution %.2f%% slower than scalar (batched %.0fns, scalar %.0fns)",
			100*(batchedTotal-scalarTotal)/scalarTotal, batchedTotal, scalarTotal)
	} else {
		t.Logf("batched/scalar total: %.0fns / %.0fns (%.2fx)",
			batchedTotal, scalarTotal, scalarTotal/batchedTotal)
	}
}

// TestIndexSpeedupGuard fails if the path-index access path falls short of
// 5x over navigation for the rare //name probe on the page-backed store at
// 8000 elements — the O(subtree) vs O(matches) acceptance floor of the
// structural-index work. The guard self-skips on constrained machines
// (below 2 cores the timing is dominated by scheduler noise; the
// index-enabled difftest twins still prove correctness there and
// `natix-bench -exp index` records the honest numbers). Timing-sensitive,
// so it only runs when explicitly requested:
//
//	NATIX_PERF_GUARD=1 go test -run TestIndexSpeedupGuard
func TestIndexSpeedupGuard(t *testing.T) {
	if os.Getenv("NATIX_PERF_GUARD") == "" {
		t.Skip("set NATIX_PERF_GUARD=1 to run the index speedup guard")
	}
	if cores := runtime.GOMAXPROCS(0); cores < 2 {
		t.Skipf("GOMAXPROCS=%d: timings too noisy for a ratio guard", cores)
	}
	const elements = 8000
	mem := bench.SkewedDoc(elements)
	stored, err := bench.StoreImage(fmt.Sprintf("skew/%d", elements), mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	root := natix.RootNode(stored)

	const rounds = 5
	best := func(q *natix.Prepared) float64 {
		min := -1.0
		for r := 0; r < rounds; r++ {
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := q.Run(root, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
			if ns := float64(res.NsPerOp()); min < 0 || ns < min {
				min = ns
			}
		}
		return min
	}
	var navTotal, pixTotal float64
	for _, spec := range bench.IndexQueries {
		if spec.ID == "common" {
			// The dominant tag covers most of the document: the scan still
			// wins on the store backend but O(matches) ~ O(subtree) there,
			// so the 5x floor applies to the selective probes only.
			continue
		}
		nav := natix.MustCompile(spec.XPath)
		pix := natix.MustCompileWith(spec.XPath, natix.Options{EnablePathIndex: true})
		nNs, pNs := best(nav), best(pix)
		t.Logf("%s (%s): navigation %.0fns path-index %.0fns (%.2fx)",
			spec.ID, spec.XPath, nNs, pNs, nNs/pNs)
		navTotal += nNs
		pixTotal += pNs
	}
	if speedup := navTotal / pixTotal; speedup < 5 {
		t.Errorf("path-index speedup %.2fx below the 5x floor (navigation %.0fns, path-index %.0fns)",
			speedup, navTotal, pixTotal)
	} else {
		t.Logf("navigation/path-index total: %.0fns / %.0fns (%.2fx)", navTotal, pixTotal, speedup)
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
