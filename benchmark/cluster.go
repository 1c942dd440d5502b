package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"natix"
	"natix/internal/catalog"
	"natix/internal/cluster"
	"natix/internal/dom"
	"natix/internal/metrics"
	"natix/internal/plancache"
	"natix/internal/server"
)

// clusterScatter is workload cluster_scatter_mem: a coordinator over
// in-process shard servers (one worker each) holding in-memory documents
// placed by the topology's hash ring. One closed-loop client with one
// keep-alive connection POSTs a seeded mix of single-document,
// three-document and wildcard queries, so routing, fan-out, the shards' work
// and the ordered merge are what an op costs and the store is never entered.
type clusterScatter struct {
	cfg     runConfig
	queries []logicalQuery
	names   []string // sorted: the cluster's global document order
	docs    []*dom.MemDoc
	refs    [][]answer

	shards   []*server.Server
	shardTS  []*httptest.Server
	cats     []*catalog.Catalog
	caches   []*plancache.Cache
	coord    *cluster.Coordinator
	coordTS  *httptest.Server
	http     *http.Client
	trans    *http.Transport
	wire     *wireCounters
	load     loadState
	genTime  time.Duration // mean per document
	acc      clusterAcc
	before   processCounters
	queryURL string
}

type clusterAcc struct {
	coordUS, slowestUS, selfUS []time.Duration
	shardCalls                 int64
	coalesced, partial         int64
	docResults, docCached      int64
	stats                      natix.Stats
	results                    int64
}

// mixPattern is the request mix, exact in every ten requests:
// five single-document (1), three over a list of three documents (3), two
// over every document (0). The seed shuffles the order of each ten; drawing
// the kind independently per request would let the share of the 16-fold
// wildcard ops, and with it every per-op mean, wander from seed to seed.
var mixPattern = [10]int{1, 1, 1, 1, 1, 3, 3, 3, 0, 0}

func newClusterScatter(cfg runConfig) *clusterScatter { return &clusterScatter{cfg: cfg} }

func (w *clusterScatter) setup() (time.Duration, error) {
	start := time.Now()
	sz := w.cfg.sizes
	var err error
	if w.queries == nil {
		if w.queries, err = tagQueries(sz.ClusterQueries, sz.ServeTags); err != nil {
			return 0, err
		}
	}
	w.shards, w.shardTS, w.cats, w.caches = nil, nil, nil, nil
	spec := cluster.TopologySpec{Generation: 1}
	for i := 0; i < sz.ClusterShards; i++ {
		cat := catalog.New()
		cache := plancache.New(sz.ServeCacheEntries, 16<<20)
		srv := server.New(server.Config{Catalog: cat, Cache: cache, Workers: 1, QueueDepth: w.cfg.shardQueueDepth()})
		ts := httptest.NewServer(srv.Handler())
		w.cats, w.caches = append(w.cats, cat), append(w.caches, cache)
		w.shards, w.shardTS = append(w.shards, srv), append(w.shardTS, ts)
		spec.Shards = append(spec.Shards, cluster.ShardSpec{ID: fmt.Sprintf("s%d", i), Endpoints: []string{ts.URL}})
	}
	topo, err := cluster.NewTopology(spec)
	if err != nil {
		return 0, err
	}
	w.names, w.docs = nil, nil
	for i := 0; i < sz.ClusterDocs; i++ {
		w.names = append(w.names, fmt.Sprintf("d%02d", i))
	}
	sort.Strings(w.names)
	shardOf := map[string]int{}
	for i, id := range topo.ShardIDs() {
		shardOf[id] = i
	}
	t0 := time.Now()
	for i, name := range w.names {
		mem := tagDoc(sz, sz.ClusterElements, w.cfg.seed, i)
		w.docs = append(w.docs, mem)
		if err := w.cats[shardOf[topo.Owner(name)]].OpenMemDoc(name, mem); err != nil {
			return 0, err
		}
	}
	w.genTime = time.Since(t0) / time.Duration(len(w.names))
	if w.coord, err = cluster.New(cluster.Config{Topology: topo}); err != nil {
		return 0, err
	}
	w.coordTS = httptest.NewServer(w.coord.Handler())
	w.queryURL = w.coordTS.URL + "/query"
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	w.coord.ProbeNow(ctx) // wildcard routing needs the observed placement
	cancel()
	if w.cfg.trace {
		w.wire = &wireCounters{}
	}
	w.http, w.trans = oneConnClient(w.wire)
	w.load = newLoadState(w.cfg.seed, 0, sz.ServeZipfS, len(w.queries))
	w.acc = clusterAcc{}
	built := time.Since(start)

	if w.refs == nil {
		if w.refs, err = serviceRefs(w.docs, w.queries); err != nil {
			return 0, err
		}
	}

	warmStart := time.Now()
	if err := warm(sz.ClusterWarmOps, func(seq int64) opOutcome { return w.op(nil, seq) }); err != nil {
		return 0, fmt.Errorf("cluster_scatter_mem: %w", err)
	}
	return built + time.Since(warmStart), nil
}

// draw picks the next request: the query's rank, the indexes of the
// documents it covers (ascending = global document order) and the document
// expression to send.
func (w *clusterScatter) draw(ld *loadState) (k int, docs []int, expr string) {
	k = int(ld.zipf.Uint64())
	if len(ld.mix) == 0 {
		ld.mix = append(ld.mix, mixPattern[:]...)
		ld.rng.Shuffle(len(ld.mix), func(i, j int) { ld.mix[i], ld.mix[j] = ld.mix[j], ld.mix[i] })
	}
	width := ld.mix[0]
	ld.mix = ld.mix[1:]
	switch width {
	case 0:
		for i := range w.names {
			docs = append(docs, i)
		}
		return k, docs, "*"
	case 1:
		docs = []int{ld.rng.Intn(len(w.names))}
	default:
		docs = append(docs, ld.rng.Perm(len(w.names))[:min(width, len(w.names))]...)
		sort.Ints(docs)
	}
	parts := make([]string, len(docs))
	for i, d := range docs {
		parts[i] = w.names[d]
	}
	return k, docs, strings.Join(parts, ",")
}

// merged is the reference answer of a scatter: per-document answers
// concatenated in global document order.
func (w *clusterScatter) merged(k int, docs []int) answer {
	var a answer
	for _, d := range docs {
		r := w.refs[d][k]
		if r.count == 0 {
			continue
		}
		if a.count == 0 {
			a.first = r.first
		}
		a.count += r.count
		a.last = r.last
	}
	return a
}

func (w *clusterScatter) op(rec *recorder, seq int64) opOutcome {
	ld, acc := &w.load, &w.acc
	k, docs, expr := w.draw(ld)
	q := w.queries[k]
	body, err := w.requestBody(k, expr)
	if err != nil {
		return opOutcome{fail: q.id}
	}
	sp := rec.begin("client.query", seq, 0)
	t0 := time.Now()
	var resp cluster.QueryResponse
	status, err := postJSON(w.http, w.queryURL, body, &resp)
	lat := time.Since(t0)
	rec.end(sp)
	if err != nil || status != http.StatusOK {
		return opOutcome{lat: lat, fail: q.id}
	}
	var slowest int64
	for _, sh := range resp.Shards {
		slowest = max(slowest, sh.MaxUS)
		acc.shardCalls += int64(sh.Calls)
	}
	if rec != nil {
		co := rec.add("cluster.coordinate", seq, sp, time.Duration(resp.ElapsedUS)*time.Microsecond)
		rec.add("cluster.shard", seq, co, time.Duration(slowest)*time.Microsecond)
	}
	if resp.Partial || !checkResult(resp.Result, w.merged(k, docs)) {
		if resp.Partial {
			acc.partial++
		}
		return opOutcome{lat: lat, fail: q.id}
	}
	acc.coordUS = append(acc.coordUS, time.Duration(resp.ElapsedUS)*time.Microsecond)
	acc.slowestUS = append(acc.slowestUS, time.Duration(slowest)*time.Microsecond)
	acc.selfUS = append(acc.selfUS, time.Duration(resp.ElapsedUS-slowest)*time.Microsecond)
	if resp.Coalesced {
		acc.coalesced++
	}
	if len(resp.PerDocument) == 0 {
		acc.docResults++
		if resp.Cached {
			acc.docCached++
		}
	}
	for _, d := range resp.PerDocument {
		acc.docResults++
		if d.Cached {
			acc.docCached++
		}
	}
	addStats(&acc.stats, wireStats(resp.Stats))
	acc.results += int64(resp.Result.Count)
	return opOutcome{lat: lat}
}

// requestBody is the coordinator request for query k over the documents expr
// names.
func (w *clusterScatter) requestBody(k int, expr string) ([]byte, error) {
	return json.Marshal(cluster.QueryRequest{QueryRequest: server.QueryRequest{Query: w.queries[k].spellings[0], Document: expr}})
}

// postJSON posts body and decodes a 200 answer into out.
func postJSON(hc *http.Client, url string, body []byte, out any) (int, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// settle answers every (document, query) once through the coordinator, so
// every shard's plan cache holds every plan of its documents. The client's
// per-op samples, which grow with throughput, are dropped.
func (w *clusterScatter) settle() error {
	w.acc = clusterAcc{}
	for d, name := range w.names {
		for k, q := range w.queries {
			body, err := w.requestBody(k, name)
			if err != nil {
				return err
			}
			var resp cluster.QueryResponse
			status, err := postJSON(w.http, w.queryURL, body, &resp)
			if err != nil || status != http.StatusOK || !checkResult(resp.Result, w.refs[d][k]) {
				return fmt.Errorf("settle: %s on %s: status %d, err %v", q.id, name, status, err)
			}
		}
	}
	return nil
}

func (w *clusterScatter) run(d time.Duration, rec *recorder) *window {
	w.acc = clusterAcc{}
	if rec != nil {
		metrics.Enable()
		defer metrics.Disable()
		w.before = readProcessCounters(w.caches, w.wire)
	}
	return closedLoop(d, func(seq int64) opOutcome { return w.op(rec, seq) })
}

func (w *clusterScatter) layers(traced *window, rec *recorder, out metricSet) error {
	after := readProcessCounters(w.caches, w.wire)
	all := w.acc
	ops := traced.attempted
	n := len(all.coordUS)
	serviceLayers(w.before, after, ops, 0, all.shardCalls, out)
	statsLayers(all.stats, all.results, int64(n), out)
	out.put("cluster.coord_elapsed_us_p50", us(percentile(all.coordUS, 0.5)), n)
	out.put("cluster.slowest_shard_us_p50", us(percentile(all.slowestUS, 0.5)), n)
	out.put("cluster.scatter_merge_self_us_p50", us(percentile(all.selfUS, 0.5)), n)
	out.put("cluster.shard_calls_per_op", ratio(float64(all.shardCalls), float64(ops)), int(ops))
	out.put("cluster.coalesced_share", ratio(float64(all.coalesced), float64(n)), n)
	out.put("cluster.partial_share", ratio(float64(all.partial), float64(ops)), int(ops))
	cachedShare := ratio(float64(all.docCached), float64(all.docResults))
	out.put("server.cached_share", cachedShare, int(all.docResults))
	out.put("gen.generate_ms", ms(w.genTime), len(w.names))

	var in []compileInput
	for _, q := range w.queries {
		in = append(in, compileInput{expr: q.spellings[0]})
	}
	compilePhases(in, rec, out)
	cachePathProbe(in, out)
	// One op compiles once per uncached document result.
	docsPerOp := ratio(float64(all.docResults), float64(n))
	prepareProbe(in, natix.Options{}, (1-cachedShare)*docsPerOp, mean(traced.lat), out)
	for i, cat := range w.cats {
		if docs := cat.List(); len(docs) > 0 {
			if err := catalogProbe(w.cats[i], docs[0].Name, out); err != nil {
				return err
			}
			break
		}
	}
	// The same request mix straight into the coordinator's handler, the
	// front handler of this workload as the server's is of serve_zipf_store.
	// The coordinator still reaches its shards over HTTP.
	ld := newLoadState(w.cfg.seed, 1, w.cfg.sizes.ServeZipfS, len(w.queries))
	direct, err := directHandler(w.coord.Handler(), func() ([]byte, error) {
		k, _, expr := w.draw(&ld)
		return w.requestBody(k, expr)
	})
	if err != nil {
		return err
	}
	frontLayers(direct, traced.lat, out)
	return nil
}

func (w *clusterScatter) teardown() error {
	var errs []error
	if w.trans != nil {
		w.trans.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if w.coordTS != nil {
		w.coordTS.Close()
		w.coordTS = nil
	}
	if w.coord != nil {
		errs = append(errs, w.coord.Shutdown(ctx))
		w.coord.Close()
		w.coord = nil
	}
	for i, srv := range w.shards {
		w.shardTS[i].Close()
		errs = append(errs, srv.Shutdown(ctx), checkCatalogIdle(w.cats[i]))
		w.cats[i].CloseAll()
	}
	w.shards, w.shardTS, w.cats, w.caches = nil, nil, nil, nil
	w.http, w.trans, w.docs = nil, nil, nil
	return errors.Join(errs...)
}
