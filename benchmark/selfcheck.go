package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// selfcheckRounds is how many full sets of runs stand behind each side of the
// comparison. A bound is a share of a median of runs; on a shared machine
// one run against one run differs by more than any bound the driver allows
// (serve_zipf_store read 0.18 and 0.27 ms a few minutes apart).
const selfcheckRounds = 3

// runSelfcheck runs the full set 2 x selfcheckRounds times as two
// interleaved sides (A B B A A B, the workload order reversed every other
// time) and compares the sides' medians: every end-to-end metric of every
// workload must agree within its bound, and the engine's exact-repeat
// counters on the library workloads must be the same in every run. It
// returns the process exit code.
func runSelfcheck(cfg runConfig, hdr header) int {
	order := make([]string, len(workloadSpecs))
	for i, ws := range workloadSpecs {
		order[i] = ws.Name
	}
	type key struct {
		workload string
		trace    bool
	}
	var sides [2]map[key][]*result
	for side := range sides {
		sides[side] = map[key][]*result{}
	}
	for i := 0; i < 2*selfcheckRounds; i++ {
		side := (i + i/2) % 2
		names := append([]string(nil), order...)
		if i%2 == 1 {
			slices.Reverse(names)
		}
		for _, name := range names {
			for _, traced := range []bool{false, true} {
				c := cfg
				c.trace = traced
				res := runChild(name, c)
				if !res.Correct {
					printResult(res)
					return 1
				}
				k := key{name, traced}
				sides[side][k] = append(sides[side][k], res)
			}
		}
	}
	median := func(rs []*result, name string) float64 {
		vs := make([]float64, len(rs))
		for i, r := range rs {
			vs[i] = r.metric(name).Value
		}
		sort.Float64s(vs)
		return vs[len(vs)/2]
	}
	fmt.Printf("selfcheck seed=%d window=%.1fs gomaxprocs=%d: medians of %d runs a side; exact rows are least and most of all runs\n",
		hdr.Seed, hdr.Seconds, hdr.GOMAXPROCS, selfcheckRounds)
	fmt.Printf("%-20s %-28s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	bad := 0
	row := func(workload, name string, a, b, bound float64, exact bool) {
		// Either side may stand for the parent, so the difference is taken
		// as a share of the smaller value: the stricter of the two readings
		// of "share of the parent's median".
		diff := 0.0
		if a != b {
			diff = math.Abs(b-a) / math.Min(math.Abs(a), math.Abs(b))
		}
		verdict := ""
		if (exact && a != b) || (!exact && diff > bound) {
			verdict = "  EXCEEDS"
			bad++
		}
		limit := fmt.Sprintf("%.3f", bound)
		if exact {
			limit = "exact"
		}
		fmt.Printf("%-20s %-28s %14.4f %14.4f %8.2f%% %7s%s\n", workload, name, a, b, 100*diff, limit, verdict)
	}
	for _, name := range order {
		a, b := sides[0][key{name, false}], sides[1][key{name, false}]
		for _, spec := range endToEnd {
			row(name, spec.Name, median(a, spec.Name), median(b, spec.Name), spec.Bound, false)
		}
		if !strings.HasPrefix(name, "lib_") {
			continue
		}
		all := append(append([]*result(nil), sides[0][key{name, true}]...), sides[1][key{name, true}]...)
		for _, spec := range perLayer {
			if strings.HasPrefix(spec.Name, "physical.") && strings.HasSuffix(spec.Name, "_per_op") {
				lo, hi := all[0].metric(spec.Name).Value, all[0].metric(spec.Name).Value
				for _, r := range all[1:] {
					lo, hi = min(lo, r.metric(spec.Name).Value), max(hi, r.metric(spec.Name).Value)
				}
				row(name, spec.Name, lo, hi, 0, true)
			}
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d comparisons exceed their bound\n", bad)
		return 1
	}
	fmt.Println("selfcheck: two sides of runs of the same code agree within every bound")
	return 0
}
