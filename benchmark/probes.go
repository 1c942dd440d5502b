package main

import (
	"context"
	"fmt"
	"time"

	"natix"
	"natix/internal/canon"
	"natix/internal/catalog"
	"natix/internal/codegen"
	"natix/internal/dom"
	"natix/internal/interp"
	"natix/internal/pathindex"
	"natix/internal/plancache"
	"natix/internal/sem"
	"natix/internal/translate"
	"natix/internal/xpath"
)

// The probes below time calls into one layer's public functions from
// outside, after the traced window. Each repeats its call enough times for
// the clock's resolution not to matter and reports the repetition count as
// the metric's sample count.

// probeBudget is about how long one probe may run; the tests shorten it.
var probeBudget = 150 * time.Millisecond

type compileInput struct {
	expr string
	ns   map[string]string
}

// compilePhases calls the five compile phases in the order natix.Prepare
// does (default options: the improved translation with path rewrites) and
// reports the mean time of each per expression, plus the mean plan size.
func compilePhases(in []compileInput, rec *recorder, out metricSet) {
	if len(in) == 0 {
		return
	}
	names := [5]string{"xpath.parse", "sem.analyze", "sem.rewrite", "translate.translate", "codegen.compile"}
	var total [5]time.Duration
	reps := 0
	for start := time.Now(); reps < 3 || time.Since(start) < probeBudget; reps++ {
		for i, c := range in {
			op := int64(reps*len(in) + i)
			top := rec.begin("compile.phases", op, 0)
			var t [6]time.Time
			var sp [5]int32
			t[0] = time.Now()
			sp[0] = rec.begin(names[0], op, top)
			ast, err := xpath.Parse(c.expr)
			rec.end(sp[0])
			t[1] = time.Now()
			if err != nil {
				continue // the workload's own op reports bad expressions
			}
			sp[1] = rec.begin(names[1], op, top)
			root, err := sem.Analyze(ast, &sem.Env{Namespaces: c.ns})
			rec.end(sp[1])
			t[2] = time.Now()
			if err != nil {
				continue
			}
			sp[2] = rec.begin(names[2], op, top)
			root = sem.RewritePaths(root)
			rec.end(sp[2])
			t[3] = time.Now()
			sp[3] = rec.begin(names[3], op, top)
			trans, err := translate.Translate(root, translate.Improved())
			rec.end(sp[3])
			t[4] = time.Now()
			if err != nil {
				continue
			}
			sp[4] = rec.begin(names[4], op, top)
			_, err = codegen.Compile(trans)
			rec.end(sp[4])
			t[5] = time.Now()
			rec.end(top)
			if err != nil {
				continue
			}
			for k := range total {
				total[k] += t[k+1].Sub(t[k])
			}
		}
	}
	n := reps * len(in)
	for k, name := range names {
		out.put(name+"_us", us(total[k])/float64(n), n)
	}
	var cost int64
	for _, c := range in {
		if p, err := natix.Prepare(c.expr, natix.Options{Namespaces: c.ns}); err == nil {
			cost += p.CostBytes()
		}
	}
	out.put("codegen.cost_bytes", float64(cost)/float64(len(in)), len(in))
}

// addStats sums one execution's engine counters into a window's.
func addStats(sum *natix.Stats, s natix.Stats) {
	sum.AxisSteps += s.AxisSteps
	sum.Tuples += s.Tuples
	sum.DupDropped += s.DupDropped
	sum.Sorted += s.Sorted
	sum.MemoHits += s.MemoHits
	sum.MemoMisses += s.MemoMisses
}

// statsLayers reports the engine counters of a window per op. On the
// library workloads these repeat exactly from run to run.
func statsLayers(st natix.Stats, results, ops int64, out metricSet) {
	n := int(ops)
	out.put("physical.axis_steps_per_op", ratio(float64(st.AxisSteps), float64(ops)), n)
	out.put("physical.tuples_per_op", ratio(float64(st.Tuples), float64(ops)), n)
	out.put("physical.dup_dropped_per_op", ratio(float64(st.DupDropped), float64(ops)), n)
	out.put("physical.sorted_per_op", ratio(float64(st.Sorted), float64(ops)), n)
	out.put("physical.memo_hit_ratio", ratio(float64(st.MemoHits), float64(st.MemoHits+st.MemoMisses)), int(st.MemoHits+st.MemoMisses))
	out.put("physical.axis_steps_per_result", ratio(float64(st.AxisSteps), float64(results)), int(results))
}

// analyzeOverhead compares ExplainAnalyze with Run on one precompiled plan,
// alternating the two so drift hits both.
func analyzeOverhead(q libQuery, out metricSet) error {
	p, err := natix.Prepare(q.expr, natix.Options{Namespaces: q.ns})
	if err != nil {
		return err
	}
	var plain, analyzed []time.Duration
	for start := time.Now(); len(plain) < 5 || time.Since(start) < 2*probeBudget; {
		t0 := time.Now()
		if _, err := p.Run(q.root, q.vars); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := p.ExplainAnalyze(context.Background(), q.root, q.vars); err != nil {
			return err
		}
		plain = append(plain, t1.Sub(t0))
		analyzed = append(analyzed, time.Since(t1))
	}
	out.put("physical.analyze_overhead_share",
		ratio(float64(percentile(analyzed, 0.5)), float64(percentile(plain, 0.5)))-1, len(plain))
	return nil
}

// interpOp runs the workload's op through the interpreter (compile + eval
// of every query), keeping the paper's comparison in the trajectory.
func interpOp(queries []libQuery, root func(q *libQuery) dom.Node, out metricSet) error {
	var lat []time.Duration
	for start := time.Now(); len(lat) < 3 || time.Since(start) < 4*probeBudget; {
		t0 := time.Now()
		for i := range queries {
			q := &queries[i]
			iq, err := interp.Compile(q.expr, &sem.Env{Namespaces: q.ns}, interp.Options{DedupSteps: true})
			if err != nil {
				return err
			}
			if _, err := iq.Eval(root(q), q.vars); err != nil {
				return err
			}
		}
		lat = append(lat, time.Since(t0))
	}
	out.put("interp.op_ms_p50", ms(percentile(lat, 0.5)), len(lat))
	return nil
}

// parseProbe serializes the document and times parsing the text back.
func parseProbe(d *dom.MemDoc, out metricSet) error {
	text := dom.SerializeString(d)
	var lat []time.Duration
	for start := time.Now(); len(lat) < 3 || time.Since(start) < probeBudget; {
		t0 := time.Now()
		if _, err := dom.ParseString(text); err != nil {
			return err
		}
		lat = append(lat, time.Since(t0))
	}
	out.put("dom.parse_ms", ms(percentile(lat, 0.5)), len(lat))
	return nil
}

// descendantWalk enumerates the descendant axis from the document node with
// a dom.Stepper, the primitive under every navigation operator, and returns
// the best time of a few passes with the number of nodes visited.
func descendantWalk(d dom.Document) (time.Duration, int) {
	st := dom.NewStepper(dom.AxisDescendant)
	buf := make([]dom.NodeID, 256)
	best, nodes := time.Duration(0), 0
	for pass := 0; pass < 5; pass++ {
		n := 0
		t0 := time.Now()
		st.Reset(d, d.Root())
		for {
			k := st.NextBatch(buf)
			n += k
			if k < len(buf) {
				break
			}
		}
		if el := time.Since(t0); pass == 0 || el < best {
			best = el
		}
		nodes = n
	}
	return best, nodes
}

// cachePathProbe times canonicalization and the plan cache's two paths on
// a private cache: the first pass over the expressions misses (canonicalize
// + compile + admit), later passes hit.
func cachePathProbe(in []compileInput, out metricSet) {
	var canonT, missT, hitT time.Duration
	canonN, missN, hitN := 0, 0, 0
	for start := time.Now(); canonN == 0 || time.Since(start) < probeBudget; {
		cache := plancache.New(0, 0)
		for pass := 0; pass < 3; pass++ {
			for _, c := range in {
				t0 := time.Now()
				canon.Canonicalize(c.expr)
				t1 := time.Now()
				_, _, hit, err := cache.GetOrCompileCanonical(c.expr, natix.Options{Namespaces: c.ns}, "probe", 1, 1)
				el := time.Since(t1)
				canonT += t1.Sub(t0)
				canonN++
				switch {
				case err != nil:
				case hit:
					hitT += el
					hitN++
				default:
					missT += el
					missN++
				}
			}
		}
	}
	out.put("canon.canonicalize_us", ratio(us(canonT), float64(canonN)), canonN)
	out.put("plancache.miss_us", ratio(us(missT), float64(missN)), missN)
	out.put("plancache.hit_us", ratio(us(hitT), float64(hitN)), hitN)
}

// pathIndexProbe builds the structural index of a document and matches the
// rarest tag's path against it.
func pathIndexProbe(d dom.Document, rareTag string, out metricSet) error {
	t0 := time.Now()
	ix := pathindex.Build(d)
	out.put("pathindex.build_ms", ms(time.Since(t0)), 1)
	out.put("pathindex.paths", float64(ix.PathCount()), 1)
	steps := []pathindex.Step{{Axis: dom.AxisDescendant, Test: dom.NameTest("", rareTag)}}
	n := 0
	start := time.Now()
	for ; n < 100 || time.Since(start) < probeBudget/3; n++ {
		if _, ok := ix.MatchSteps(steps); !ok {
			return fmt.Errorf("pathindex: descendant::%s did not match", rareTag)
		}
	}
	out.put("pathindex.match_us", us(time.Since(start))/float64(n), n)
	return nil
}

// catalogProbe times one Acquire/Release pair on an idle catalog.
func catalogProbe(cat *catalog.Catalog, doc string, out metricSet) error {
	n := 0
	start := time.Now()
	for ; n < 1000 || time.Since(start) < probeBudget/3; n++ {
		h, err := cat.Acquire(doc)
		if err != nil {
			return err
		}
		h.Release()
	}
	out.put("catalog.acquire_release_ns", float64(time.Since(start))/float64(n), n)
	return nil
}
