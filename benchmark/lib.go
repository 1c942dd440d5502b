package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"natix"
	"natix/internal/bench"
	"natix/internal/difftest"
	"natix/internal/dom"
	"natix/internal/gen"
	"natix/internal/store"
	"natix/internal/xval"
)

// libQuery is one query of a library op.
type libQuery struct {
	id   string
	expr string
	ns   map[string]string
	vars map[string]xval.Value
	root dom.Node // the document the op runs it against
	span string   // name of its run span
	want answer
}

// libLoop is the single-goroutine closed loop the three library workloads
// share: one op compiles and runs every query of the set, as the paper times
// it (section 6: compile + execute).
type libLoop struct {
	cfg     runConfig
	queries []libQuery
	refDone bool

	// Accumulated over the current window.
	stats   natix.Stats
	results int64
}

// setReferences computes each query's reference answer once per run: every
// set-up of one run builds the same inputs from the same seed. refRoot maps
// a query to the in-memory document the interpreter evaluates it on.
func (l *libLoop) setReferences(refRoot func(q *libQuery) dom.Node) error {
	if l.refDone {
		return nil
	}
	for i := range l.queries {
		q := &l.queries[i]
		a, err := reference(q.expr, q.ns, refRoot(q), q.vars, false)
		if err != nil {
			return err
		}
		q.want = a
	}
	l.refDone = true
	return nil
}

func (l *libLoop) op(rec *recorder, seq int64) opOutcome {
	var out opOutcome
	top := rec.begin("op", seq, 0)
	for i := range l.queries {
		q := &l.queries[i]
		t0 := time.Now()
		sp := rec.begin("natix.prepare", seq, top)
		p, err := natix.Prepare(q.expr, natix.Options{Namespaces: q.ns})
		rec.end(sp)
		var res *natix.Result
		if err == nil {
			sp = rec.begin(q.span, seq, top)
			res, err = p.Run(q.root, q.vars)
			rec.end(sp)
		}
		out.lat += time.Since(t0)
		if err != nil || !answerOf(res.Value, false).equal(q.want) {
			if out.fail == "" {
				out.fail = q.id
			}
			continue
		}
		addStats(&l.stats, res.Stats)
		if res.Value.IsNodeSet() {
			l.results += int64(len(res.Value.Nodes))
		} else {
			l.results++
		}
	}
	rec.end(top)
	return out
}

func (l *libLoop) warm() error {
	return warm(l.cfg.sizes.LibWarmOps, func(seq int64) opOutcome { return l.op(nil, seq) })
}

// settle: a library workload keeps nothing between ops.
func (l *libLoop) settle() error { return nil }

func (l *libLoop) run(d time.Duration, rec *recorder) *window {
	l.stats, l.results = natix.Stats{}, 0
	return closedLoop(d, func(seq int64) opOutcome { return l.op(rec, seq) })
}

// engineLayers reports what every library workload can say about the
// compile phases and the physical engine after a traced window.
func (l *libLoop) engineLayers(traced *window, rec *recorder, out metricSet) {
	compilePhases(l.compileInputs(), rec, out)
	prep := rec.durations("natix.prepare")
	out.put("natix.prepare_us", us(mean(prep)), len(prep))
	var prepSum, opSum time.Duration
	for _, d := range prep {
		prepSum += d
	}
	for _, d := range traced.lat {
		opSum += d
	}
	out.put("compile.share_of_op", ratio(float64(prepSum), float64(opSum)), len(traced.lat))
	statsLayers(l.stats, l.results, traced.attempted-traced.failed, out)
}

func (l *libLoop) compileInputs() []compileInput {
	in := make([]compileInput, len(l.queries))
	for i, q := range l.queries {
		in[i] = compileInput{expr: q.expr, ns: q.ns}
	}
	return in
}

// runSpanLayers reports the median run time of each query's own span as
// physical.<id>_run_ms.
func (l *libLoop) runSpanLayers(rec *recorder, out metricSet) {
	for _, q := range l.queries {
		ds := rec.durations(q.span)
		out.put(q.span+"_ms", ms(percentile(ds, 0.50)), len(ds))
	}
}

// ---------------------------------------------------------------- lib_nav_mem

type libNav struct {
	libLoop
	nav, q2 *dom.MemDoc
	genTime time.Duration
}

func newLibNav(cfg runConfig) *libNav {
	w := &libNav{libLoop: libLoop{cfg: cfg}}
	for _, q := range bench.Fig5 {
		w.queries = append(w.queries, libQuery{id: q.ID, expr: q.XPath, span: "physical." + q.ID + "_run"})
	}
	return w
}

func (w *libNav) setup() (time.Duration, error) {
	start := time.Now()
	sz := w.cfg.sizes
	w.nav = gen.Generate(gen.Params{Elements: sz.NavElements, Fanout: sz.NavFanout})
	w.q2 = gen.Generate(gen.Params{Elements: sz.Q2Elements, Fanout: sz.Q2Fanout})
	w.genTime = time.Since(start)
	for i := range w.queries {
		q := &w.queries[i]
		q.root = natix.RootNode(w.nav)
		if q.id == "q2" {
			q.root = natix.RootNode(w.q2)
		}
	}
	built := time.Since(start)
	if err := w.setReferences(func(q *libQuery) dom.Node { return q.root }); err != nil {
		return 0, err
	}
	warmStart := time.Now()
	if err := w.warm(); err != nil {
		return 0, err
	}
	return built + time.Since(warmStart), nil
}

func (w *libNav) layers(traced *window, rec *recorder, out metricSet) error {
	w.engineLayers(traced, rec, out)
	w.runSpanLayers(rec, out)
	out.put("gen.generate_ms", ms(w.genTime), 1)
	if err := analyzeOverhead(w.queries[0], out); err != nil {
		return err
	}
	if err := interpOp(w.queries, func(q *libQuery) dom.Node { return q.root }, out); err != nil {
		return err
	}
	if err := parseProbe(w.nav, out); err != nil {
		return err
	}
	d, n := descendantWalk(w.nav)
	out.put("dom.descendant_ns_per_node", ratio(float64(d), float64(n)), n)
	return nil
}

func (w *libNav) teardown() error {
	w.nav, w.q2 = nil, nil
	return nil
}

// ------------------------------------------------------------- lib_dblp_store

type libDBLP struct {
	libLoop
	dir   string
	path  string
	mem   *dom.MemDoc // kept only for traced runs (interpreter, traversal probes)
	doc   *store.Doc
	pages int
	nodes int

	genTime, writeTime, openTime time.Duration
	imageBytes                   int64
	bufBefore                    store.BufferStats
}

func newLibDBLP(cfg runConfig) *libDBLP {
	w := &libDBLP{libLoop: libLoop{cfg: cfg}}
	for _, q := range bench.Fig10 {
		w.queries = append(w.queries, libQuery{id: q.ID, expr: q.XPath, span: "physical." + q.ID + "_run"})
	}
	return w
}

func (w *libDBLP) setup() (time.Duration, error) {
	start := time.Now()
	mem := gen.DBLP(gen.DBLPParams{Publications: w.cfg.sizes.DBLPPublications, Seed: w.cfg.seed})
	w.genTime = time.Since(start)
	var err error
	if w.dir, err = os.MkdirTemp(w.cfg.outDir, "dblp-"); err != nil {
		return 0, err
	}
	w.path = filepath.Join(w.dir, "dblp.natix")
	t0 := time.Now()
	if err := store.Write(w.path, mem); err != nil {
		return 0, err
	}
	w.writeTime = time.Since(t0)
	fi, err := os.Stat(w.path)
	if err != nil {
		return 0, err
	}
	w.imageBytes = fi.Size()
	w.pages = int(fi.Size() / store.DefaultPageSize)
	w.nodes = mem.NodeCount()
	t0 = time.Now()
	// The working set is DBLPBufferDivisor times the buffer, so the scan
	// queries miss and evict on every pass.
	w.doc, err = store.Open(w.path, store.Options{BufferPages: w.pages / w.cfg.sizes.DBLPBufferDivisor})
	if err != nil {
		return 0, err
	}
	w.openTime = time.Since(t0)
	for i := range w.queries {
		w.queries[i].root = natix.RootNode(w.doc)
	}
	built := time.Since(start)
	// The store keeps the node ids of the document it was written from, so
	// the interpreter's answer on the in-memory document checks the store's.
	if err := w.setReferences(func(*libQuery) dom.Node { return natix.RootNode(mem) }); err != nil {
		return 0, err
	}
	if w.cfg.trace {
		w.mem = mem
	}
	warmStart := time.Now()
	if err := w.warm(); err != nil {
		return 0, err
	}
	return built + time.Since(warmStart), nil
}

func (w *libDBLP) run(d time.Duration, rec *recorder) *window {
	w.bufBefore = w.doc.BufferStats()
	return w.libLoop.run(d, rec)
}

func (w *libDBLP) layers(traced *window, rec *recorder, out metricSet) error {
	buf := w.doc.BufferStats()
	w.engineLayers(traced, rec, out)
	w.runSpanLayers(rec, out)
	ops := float64(traced.attempted)
	hits, misses := float64(buf.Hits-w.bufBefore.Hits), float64(buf.Misses-w.bufBefore.Misses)
	out.put("store.buffer_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	out.put("store.buffer_misses_per_op", ratio(misses, ops), int(traced.attempted))
	out.put("store.buffer_evictions_per_op", ratio(float64(buf.Evictions-w.bufBefore.Evictions), ops), int(traced.attempted))
	out.put("gen.generate_ms", ms(w.genTime), 1)
	out.put("store.write_ms", ms(w.writeTime), 1)
	out.put("store.open_ms", ms(w.openTime), 1)
	out.put("store.image_bytes_per_node", ratio(float64(w.imageBytes), float64(w.nodes)), w.nodes)
	if err := interpOp(w.queries, func(*libQuery) dom.Node { return natix.RootNode(w.mem) }, out); err != nil {
		return err
	}
	d, n := descendantWalk(w.mem)
	out.put("dom.descendant_ns_per_node", ratio(float64(d), float64(n)), n)
	// The same traversal on a second handle whose buffer holds the whole
	// image, after one pass has faulted every page in.
	hot, err := store.Open(w.path, store.Options{BufferPages: w.pages + 8})
	if err != nil {
		return err
	}
	defer hot.Close()
	descendantWalk(hot)
	d, n = descendantWalk(hot)
	if err := hot.Err(); err != nil {
		return err
	}
	out.put("store.descendant_ns_per_node", ratio(float64(d), float64(n)), n)
	return nil
}

func (w *libDBLP) teardown() error {
	var err error
	if w.doc != nil {
		w.doc.ReleaseRecordCache()
		if n := w.doc.PinnedPages(); n != 0 {
			err = fmt.Errorf("lib_dblp_store: %d buffer pages still pinned", n)
		}
		if ferr := w.doc.Err(); ferr != nil && err == nil {
			err = ferr
		}
		w.doc.Close()
		w.doc = nil
	}
	w.mem = nil
	if w.dir != "" {
		if rerr := os.RemoveAll(w.dir); rerr != nil && err == nil {
			err = rerr
		}
		w.dir = ""
	}
	return err
}

// ------------------------------------------------------------- compile_corpus

type compileCorpus struct {
	libLoop
}

func newCompileCorpus(cfg runConfig) *compileCorpus {
	return &compileCorpus{libLoop: libLoop{cfg: cfg}}
}

func (w *compileCorpus) setup() (time.Duration, error) {
	start := time.Now()
	items, docs, err := difftest.Corpus()
	if err != nil {
		return 0, err
	}
	seen := map[string]bool{}
	distinct := items[:0:0]
	for _, it := range items {
		if key := it.DocName + "\x00" + it.Expr; !seen[key] {
			seen[key] = true
			distinct = append(distinct, it)
		}
	}
	// Every distinct expression, in an order drawn by the seed: a sample
	// would make the op's cost, and with it every metric, vary by seed.
	rand.New(rand.NewSource(w.cfg.seed)).Shuffle(len(distinct), func(i, j int) {
		distinct[i], distinct[j] = distinct[j], distinct[i]
	})
	w.queries = make([]libQuery, len(distinct))
	for i, it := range distinct {
		w.queries[i] = libQuery{
			id: fmt.Sprintf("c%03d:%s", i, it.Expr), expr: it.Expr, ns: it.NS, vars: it.Vars,
			root: natix.RootNode(docs[it.DocName]), span: "physical.run",
		}
	}
	built := time.Since(start)
	w.refDone = false // the query set is rebuilt, so its answers are too
	if err := w.setReferences(func(q *libQuery) dom.Node { return q.root }); err != nil {
		return 0, err
	}
	warmStart := time.Now()
	if err := w.warm(); err != nil {
		return 0, err
	}
	return built + time.Since(warmStart), nil
}

func (w *compileCorpus) layers(traced *window, rec *recorder, out metricSet) error {
	w.engineLayers(traced, rec, out)
	cachePathProbe(w.compileInputs(), out)
	return nil
}

func (w *compileCorpus) teardown() error {
	w.queries = nil
	return nil
}
