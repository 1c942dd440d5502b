package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"natix"
	"natix/internal/canon"
	"natix/internal/catalog"
	"natix/internal/client"
	"natix/internal/dom"
	"natix/internal/gen"
	"natix/internal/metrics"
	"natix/internal/plancache"
	"natix/internal/server"
)

// This file holds what the two service workloads share: the query
// vocabulary over the skewed-tag documents, one-connection HTTP clients,
// wire counters and the process-wide metric deltas read in traced runs.

// pathStep is one step of a logical query over the t0..tN vocabulary.
type pathStep struct {
	descendant bool   // "//" rather than "/"
	tag        string // element name
	pred       string // child-existence predicate tag, "" for none
}

// logicalQuery is one query in two spellings the canonicalizer unifies: the
// abbreviated form and its unabbreviated expansion. Every query ends in the
// id attribute, so first and last result values identify the answer.
type logicalQuery struct {
	id        string
	spellings [2]string
}

func spell(steps []pathStep) logicalQuery {
	var ab, un strings.Builder
	for _, s := range steps {
		if s.descendant {
			ab.WriteString("//")
			un.WriteString("/descendant-or-self::node()/child::")
		} else {
			ab.WriteString("/")
			un.WriteString("/child::")
		}
		ab.WriteString(s.tag)
		un.WriteString(s.tag)
		if s.pred != "" {
			ab.WriteString("[" + s.pred + "]")
			un.WriteString("[child::" + s.pred + "]")
		}
	}
	ab.WriteString("/@id")
	un.WriteString("/attribute::id")
	return logicalQuery{id: ab.String(), spellings: [2]string{ab.String(), un.String()}}
}

// tagQueries returns n logical queries over a vocabulary of `tags` names in
// a fixed order that interleaves the three shapes: selective //tN probes
// (rarest tag first), //tA[tB]//tC twigs and /xdoc/tA/tB child chains. The
// order is the Zipf rank order and deliberately does not depend on the
// seed: the seed decides which requests are drawn, not which queries are
// hot, so every seed's run does the same expected work.
func tagQueries(n, tags int) ([]logicalQuery, error) {
	t := func(i int) string { return fmt.Sprintf("t%d", i) }
	var probes, twigs, chains []logicalQuery
	for i := tags - 1; i >= 4; i-- {
		probes = append(probes, spell([]pathStep{{descendant: true, tag: t(i)}}))
	}
	for c := 4; c <= 7; c++ {
		for a := 1; a <= 3; a++ {
			for b := 0; b <= 1; b++ {
				twigs = append(twigs, spell([]pathStep{{descendant: true, tag: t(a), pred: t(b)}, {descendant: true, tag: t(c)}}))
			}
		}
	}
	for a := 0; a <= 3; a++ {
		for b := 0; b <= 3; b++ {
			chains = append(chains, spell([]pathStep{{tag: "xdoc"}, {tag: t(a)}, {tag: t(b)}}))
		}
	}
	lists := [][]logicalQuery{probes, twigs, chains}
	var out []logicalQuery
	for i := 0; len(out) < n; i++ {
		added := false
		for _, l := range lists {
			if i < len(l) && len(out) < n {
				out = append(out, l[i])
				added = true
			}
		}
		if !added {
			return nil, fmt.Errorf("vocabulary of %d tags yields only %d queries, need %d", tags, len(out), n)
		}
	}
	for _, q := range out {
		a, _ := canon.Canonicalize(q.spellings[0])
		b, _ := canon.Canonicalize(q.spellings[1])
		if a != b {
			return nil, fmt.Errorf("spellings of %s canonicalize differently: %q vs %q", q.id, a, b)
		}
	}
	return out, nil
}

func querySpellings(qs []logicalQuery) []compileInput {
	var in []compileInput
	for _, q := range qs {
		in = append(in, compileInput{expr: q.spellings[0]}, compileInput{expr: q.spellings[1]})
	}
	return in
}

// tagDoc generates document i of a service workload.
func tagDoc(sz sizes, elements int, seed int64, i int) *dom.MemDoc {
	return gen.Generate(gen.Params{
		Elements: elements, Fanout: sz.ServeFanout,
		Tags: sz.ServeTags, Skew: sz.ServeSkew, Seed: seed*1000 + int64(i),
	})
}

// serviceRefs computes refs[doc][query] with the interpreter, one goroutine
// per document.
func serviceRefs(docs []*dom.MemDoc, qs []logicalQuery) ([][]answer, error) {
	refs := make([][]answer, len(docs))
	errs := make([]error, len(docs))
	var wg sync.WaitGroup
	for i, d := range docs {
		wg.Add(1)
		go func(i int, d *dom.MemDoc) {
			defer wg.Done()
			refs[i] = make([]answer, len(qs))
			for k, q := range qs {
				refs[i][k], errs[i] = reference(q.spellings[0], nil, natix.RootNode(d), nil, true)
				if errs[i] != nil {
					return
				}
			}
		}(i, d)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// checkResult verifies a serialized node-set against the reference:
// cardinality plus the first and last node values in document order.
func checkResult(r *server.QueryResult, want answer) bool {
	if r == nil || r.Kind != "node-set" || r.Count != want.count {
		return false
	}
	if want.count == 0 {
		return len(r.Nodes) == 0
	}
	if len(r.Nodes) == 0 || r.Nodes[0].Value != want.first {
		return false
	}
	return r.Truncated || r.Nodes[len(r.Nodes)-1].Value == want.last
}

// wireStats converts the counters a server echoes in its answer (it does not
// report Sorted).
func wireStats(s server.QueryStats) natix.Stats {
	return natix.Stats{AxisSteps: s.AxisSteps, Tuples: s.Tuples, DupDropped: s.DupDropped, MemoHits: s.MemoHits, MemoMisses: s.MemoMisses}
}

// warm runs n ops inside set-up and fails on the first that does not verify.
func warm(n int, op func(seq int64) opOutcome) error {
	for i := 0; i < n; i++ {
		if o := op(int64(i)); o.fail != "" {
			return fmt.Errorf("warm-up: wrong answer or error on %s", o.fail)
		}
	}
	return nil
}

// directHandler sends request bodies drawn by next straight into a front
// handler with a recorder: the same work without a socket or a client.
func directHandler(h http.Handler, next func() ([]byte, error)) ([]time.Duration, error) {
	var lat []time.Duration
	for start := time.Now(); len(lat) < 200 || time.Since(start) < 2*probeBudget; {
		body, err := next()
		if err != nil {
			return nil, err
		}
		req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
		rr := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rr, req)
		lat = append(lat, time.Since(t0))
		if rr.Code != http.StatusOK {
			return nil, fmt.Errorf("direct handler: status %d: %s", rr.Code, rr.Body.String())
		}
	}
	return lat, nil
}

// frontLayers reports the front handler's direct time and, against it, what
// the client and the socket add to the op.
func frontLayers(direct, clientLat []time.Duration, out metricSet) {
	out.put("server.direct_handler_us_p50", us(percentile(direct, 0.5)), len(direct))
	out.put("client.overhead_us_p50", us(percentile(clientLat, 0.5)-percentile(direct, 0.5)), len(clientLat))
}

// wireCounters counts HTTP exchanges and response bytes of traced runs.
type wireCounters struct {
	requests atomic.Int64
	bytes    atomic.Int64
}

type countingTransport struct {
	base http.RoundTripper
	wire *wireCounters
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.wire.requests.Add(1)
	resp, err := t.base.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.wire.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// oneConnClient returns an HTTP client that keeps exactly one keep-alive
// connection, the shape of one caller of internal/client. wire, when
// non-nil, counts its traffic.
func oneConnClient(wire *wireCounters) (*http.Client, *http.Transport) {
	tr := client.Pool{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}.Transport()
	var rt http.RoundTripper = tr
	if wire != nil {
		rt = &countingTransport{base: tr, wire: wire}
	}
	return &http.Client{Transport: rt, Timeout: 30 * time.Second}, tr
}

// loadState is the draw state of a service workload's request stream.
type loadState struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	mix  []int // cluster_scatter_mem: what is left of the current ten-request pattern
}

// newLoadState seeds stream number `stream` of a run: 0 is the client's, 1
// the direct-handler probe's.
func newLoadState(seed int64, stream int, zipfS float64, queries int) loadState {
	rng := rand.New(rand.NewSource(seed*7919 + int64(stream) + 1))
	return loadState{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(queries-1))}
}

// processCounters snapshots the process-wide registry metrics a traced run
// reads deltas of. They only advance while metrics.Enabled().
type processCounters struct {
	queueSum            float64
	queueN              int64
	bufHits, bufMisses  int64
	bufEvictions        int64
	rejected            int64           // requests the servers' admission refused (429/503)
	cache               plancache.Stats // summed over the servers' caches
	wireReqs, wireBytes int64
}

func readProcessCounters(caches []*plancache.Cache, wire *wireCounters) processCounters {
	q := metrics.Default.Histogram("natix_serve_queue_seconds", "")
	p := processCounters{
		queueSum:     q.Sum(),
		queueN:       q.Count(),
		bufHits:      metrics.Default.Counter("natix_buffer_hits_total", "").Value(),
		bufMisses:    metrics.Default.Counter("natix_buffer_misses_total", "").Value(),
		bufEvictions: metrics.Default.Counter("natix_buffer_evictions_total", "").Value(),
		rejected:     metrics.Default.Counter("natix_serve_rejected_total", "").Value(),
	}
	for _, c := range caches {
		s := c.Stats()
		p.cache.Hits += s.Hits
		p.cache.Misses += s.Misses
		p.cache.Evictions += s.Evictions
		p.cache.Invalidations += s.Invalidations
		p.cache.NormalizedHits += s.NormalizedHits
	}
	if wire != nil {
		p.wireReqs, p.wireBytes = wire.requests.Load(), wire.bytes.Load()
	}
	return p
}

// serviceLayers reports the per-layer metrics both service workloads derive
// the same way from process counter deltas over the traced window. ops are
// the client's ops, extraRequests its HTTP exchanges that are not ops
// (reloads), serverRequests the /query calls the servers received (more than
// ops when a coordinator fans out).
func serviceLayers(before, after processCounters, ops, extraRequests, serverRequests int64, out metricSet) {
	n := int(ops)
	out.put("server.rejected_share", ratio(float64(after.rejected-before.rejected), float64(serverRequests)), int(serverRequests))
	lookups := float64(after.cache.Hits - before.cache.Hits + after.cache.Misses - before.cache.Misses)
	hits := float64(after.cache.Hits - before.cache.Hits)
	out.put("plancache.hit_ratio", ratio(hits, lookups), int(lookups))
	out.put("plancache.normalized_hit_share", ratio(float64(after.cache.NormalizedHits-before.cache.NormalizedHits), hits), int(hits))
	out.put("plancache.evictions_per_kop", 1000*ratio(float64(after.cache.Evictions-before.cache.Evictions), float64(ops)), n)
	out.put("plancache.invalidations", float64(after.cache.Invalidations-before.cache.Invalidations), 1)
	qn := after.queueN - before.queueN
	out.put("server.queue_wait_us_mean", 1e6*ratio(after.queueSum-before.queueSum, float64(qn)), int(qn))
	bh, bm := float64(after.bufHits-before.bufHits), float64(after.bufMisses-before.bufMisses)
	out.put("store.buffer_hit_ratio", ratio(bh, bh+bm), int(bh+bm))
	out.put("store.buffer_misses_per_op", ratio(bm, float64(ops)), n)
	out.put("store.buffer_evictions_per_op", ratio(float64(after.bufEvictions-before.bufEvictions), float64(ops)), n)
	reqs := after.wireReqs - before.wireReqs - extraRequests
	out.put("client.retries_per_op", ratio(float64(reqs-ops), float64(ops)), n)
	out.put("client.response_kb_per_op", ratio(float64(after.wireBytes-before.wireBytes)/1024, float64(ops)), n)
}

// prepareProbe reports the mean natix.Prepare time over the query set with
// the options the servers compile under, and from it the share of an op
// spent compiling, given how many uncached plans an op needed on average.
func prepareProbe(in []compileInput, opt natix.Options, compilesPerOp float64, meanOp time.Duration, out metricSet) {
	var total time.Duration
	n := 0
	for start := time.Now(); n == 0 || time.Since(start) < probeBudget; {
		for _, c := range in {
			t0 := time.Now()
			if _, err := natix.Prepare(c.expr, opt); err == nil {
				total += time.Since(t0)
				n++
			}
		}
	}
	prep := total / time.Duration(n)
	out.put("natix.prepare_us", us(prep), n)
	out.put("compile.share_of_op", compilesPerOp*ratio(float64(prep), float64(meanOp)), n)
}

// checkCatalogIdle fails when a catalog still has acquired handles, retired
// generations pinned by queries, or store handles with pinned pages.
func checkCatalogIdle(cat *catalog.Catalog) error {
	for _, info := range cat.List() {
		if info.Refs != 0 || info.Retired != 0 {
			return fmt.Errorf("catalog document %s: %d refs, %d retired generations after shutdown", info.Name, info.Refs, info.Retired)
		}
		h, err := cat.Acquire(info.Name)
		if err != nil {
			return err
		}
		type pinner interface{ PinnedPages() int }
		pinned := 0
		if p, ok := h.Doc.(pinner); ok {
			pinned = p.PinnedPages()
		}
		h.Release()
		if pinned != 0 {
			return fmt.Errorf("catalog document %s: %d buffer pages pinned on an idle handle", info.Name, pinned)
		}
	}
	return nil
}
