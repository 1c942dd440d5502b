// Command natix-bench regenerates the paper's evaluation exhibits as
// timings: the query listing of Fig. 5, the document-size sweeps of Figs.
// 6-9, the DBLP query table of Fig. 10, the ablation studies of DESIGN.md
// and the buffer sweep. The exact work of the same plans (axis steps,
// tuples, page misses, answers) is pinned by internal/difftest's plan
// digest, not here.
//
// Usage:
//
//	natix-bench -exp fig6
//	natix-bench -exp fig10 -pubs 200000
//	natix-bench -exp all -sizes 2000,4000,8000 -repeats 5
//	natix-bench -exp ablations -json
//	natix-bench -exp buffer
//
// Engine names: natix (algebraic engine over the page-backed store),
// natix-mem (same plans, in-memory document), interp (main-memory
// interpreter standing in for Xalan/xsltproc), naive (interpreter without
// intermediate duplicate elimination).
//
// -json emits every measurement as a JSON array on stdout (ns/op,
// allocs/op and engine counters per point) instead of the human tables;
// progress still goes to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"natix/internal/bench"
	"natix/internal/metrics"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig5, fig6..fig9, fig10, ablations, buffer, or all")
	jsonOut := flag.Bool("json", false, "emit measurements as a JSON array on stdout instead of tables")
	metricsDump := flag.Bool("metrics", false, "print the process metrics registry (Prometheus text format) after the run")
	debugAddr := flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address during the run")
	sizes := flag.String("sizes", "", "comma-separated element counts (default: the paper's 2000..80000 sweep)")
	engines := flag.String("engines", "", "comma-separated engine subset")
	pubs := flag.Int("pubs", 100000, "fig10: synthetic DBLP publication count")
	repeats := flag.Int("repeats", 3, "runs averaged per point")
	budget := flag.Duration("budget", 15*time.Second, "drop an engine from larger sizes after exceeding this per-run budget")
	flag.Parse()

	if *metricsDump {
		metrics.Enable()
		defer os.Stderr.WriteString(metrics.Default.String())
	}
	if *debugAddr != "" {
		addr, err := metrics.Serve(*debugAddr)
		if err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s/metrics\n", addr)
	}

	cfg := bench.Config{
		Repeats: *repeats,
		Budget:  *budget,
		Progress: func(m bench.Measurement) {
			fmt.Fprintf(os.Stderr, "  %-6s %-4s %-10s n=%-7d %12v  (%d results)\n",
				m.Exp, m.Query, m.Engine, m.Scale, m.Duration.Round(time.Microsecond), m.Result)
		},
	}
	if *sizes != "" {
		for _, s := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fail("bad -sizes: %v", err)
			}
			cfg.Sizes = append(cfg.Sizes, n)
		}
	}
	if *engines != "" {
		cfg.Engines = strings.Split(*engines, ",")
	}

	jsonMode = *jsonOut
	run := func(id string) {
		switch id {
		case "fig5":
			fig5()
		case "fig6", "fig7", "fig8", "fig9":
			figure(id, cfg)
		case "fig10":
			fig10(*pubs, cfg)
		case "ablations":
			ablations(cfg)
		case "buffer":
			buffer()
		default:
			fail("unknown experiment %q", id)
		}
	}
	if *exp == "all" {
		for _, id := range []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "ablations", "buffer"} {
			run(id)
		}
	} else {
		run(*exp)
	}
	if jsonMode {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(collected); err != nil {
			fail("encode: %v", err)
		}
	}
}

// jsonMode and collected implement -json: experiments push their
// measurements here and the tables are suppressed; main emits one array at
// exit. fig5 (a listing) and buffer (store counters, not Measurements) emit
// nothing in JSON mode.
var (
	jsonMode  bool
	collected []bench.Measurement
)

// emit either prints the measurements through table (human mode) or
// collects them for the final JSON array.
func emit(ms []bench.Measurement, table func()) {
	if jsonMode {
		collected = append(collected, ms...)
		return
	}
	table()
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "natix-bench: "+format+"\n", args...)
	os.Exit(1)
}

func fig5() {
	if jsonMode {
		return
	}
	fmt.Println("== Fig. 5: queries against generated documents ==")
	for _, q := range bench.Fig5 {
		fmt.Printf("  %s  %s   (results in %s)\n", q.ID, q.XPath, bench.FigForQuery(q.ID))
	}
	fmt.Println()
}

func figure(id string, cfg bench.Config) {
	var spec bench.QuerySpec
	for _, q := range bench.Fig5 {
		if bench.FigForQuery(q.ID) == id {
			spec = q
		}
	}
	ms, err := bench.RunFigure(id, cfg)
	if err != nil {
		fail("%s: %v", id, err)
	}
	emit(ms, func() {
		fmt.Printf("== %s: %s — time vs document size ==\n", strings.ToUpper(id[:1])+id[1:], spec.XPath)
		printSeries(ms)
		fmt.Println()
	})
}

// printSeries prints one row per document size and one column per engine,
// matching the figures' series.
func printSeries(ms []bench.Measurement) {
	engines := []string{}
	seen := map[string]bool{}
	bySize := map[int]map[string]bench.Measurement{}
	sizes := []int{}
	for _, m := range ms {
		if !seen[m.Engine] {
			seen[m.Engine] = true
			engines = append(engines, m.Engine)
		}
		if bySize[m.Scale] == nil {
			bySize[m.Scale] = map[string]bench.Measurement{}
			sizes = append(sizes, m.Scale)
		}
		bySize[m.Scale][m.Engine] = m
	}
	fmt.Printf("  %-10s", "elements")
	for _, e := range engines {
		fmt.Printf(" %14s", e)
	}
	fmt.Println()
	for _, size := range sizes {
		fmt.Printf("  %-10d", size)
		for _, e := range engines {
			m := bySize[size][e]
			if m.Skipped {
				fmt.Printf(" %14s", "-")
				continue
			}
			fmt.Printf(" %14s", m.Duration.Round(10*time.Microsecond))
		}
		fmt.Println()
	}
}

func fig10(pubs int, cfg bench.Config) {
	ms, err := bench.RunFig10(pubs, cfg)
	if err != nil {
		fail("fig10: %v", err)
	}
	emit(ms, func() {
		fmt.Printf("== Fig. 10: queries against synthetic DBLP (%d publications) ==\n", pubs)
		byQuery := map[string]map[string]bench.Measurement{}
		for _, m := range ms {
			if byQuery[m.Query] == nil {
				byQuery[m.Query] = map[string]bench.Measurement{}
			}
			byQuery[m.Query][m.Engine] = m
		}
		fmt.Printf("  %-4s %-14s %-14s %8s  %s\n", "id", "interp", "natix", "results", "path")
		for _, spec := range bench.Fig10 {
			row := byQuery[spec.ID]
			ip, nx := row[bench.EngineInterp], row[bench.EngineNatix]
			fmt.Printf("  %-4s %-14s %-14s %8d  %s\n", spec.ID,
				ip.Duration.Round(10*time.Microsecond), nx.Duration.Round(10*time.Microsecond),
				nx.Result, spec.XPath)
		}
		fmt.Println()
	})
}

func ablations(cfg bench.Config) {
	ms, err := bench.RunAblations(cfg)
	if err != nil {
		fail("ablations: %v", err)
	}
	emit(ms, func() {
		fmt.Println("== Ablations: design-choice studies ==")
		var lastExp string
		for _, m := range ms {
			if m.Exp != lastExp {
				fmt.Printf("  %s (n=%d): %s\n", m.Exp, m.Scale, m.Query)
				lastExp = m.Exp
			}
			fmt.Printf("    %-14s %14s  (%d results)\n", m.Engine, m.Duration.Round(10*time.Microsecond), m.Result)
		}
		fmt.Println()
	})
}

func buffer() {
	if jsonMode {
		return
	}
	fmt.Println("== Buffer manager sweep: query 1 over the page-backed store (n=8000) ==")
	pts, err := bench.RunBufferAblation(8000, nil, 0)
	if err != nil {
		fail("buffer: %v", err)
	}
	fmt.Printf("  %-8s %14s %10s %10s %10s\n", "pages", "time", "hits", "misses", "evictions")
	for _, p := range pts {
		fmt.Printf("  %-8d %14s %10d %10d %10d\n",
			p.BufferPages, p.Duration.Round(10*time.Microsecond),
			p.Stats.Hits, p.Stats.Misses, p.Stats.Evictions)
	}
	fmt.Println()
}
