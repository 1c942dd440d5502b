package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"natix"
	"natix/internal/catalog"
	"natix/internal/client"
	"natix/internal/dom"
	"natix/internal/metrics"
	"natix/internal/plancache"
	"natix/internal/server"
	"natix/internal/store"
)

// serveZipf is workload serve_zipf_store: one server with the path index
// and plan cache on, over store-backed documents whose buffers stay hot,
// driven through internal/client by one closed-loop client with one
// keep-alive connection. The client also reloads the next document
// round-robin after every ServeReloadEvery queries, so invalidation,
// re-warming and generation retirement run between the reads they affect.
type serveZipf struct {
	cfg     runConfig
	queries []logicalQuery
	refs    [][]answer // [document][query], computed once per run

	dir      string
	names    []string
	cat      *catalog.Catalog
	cache    *plancache.Cache
	srv      *server.Server
	ts       *httptest.Server
	client   *client.Client
	trans    *http.Transport
	wire     *wireCounters
	load     loadState
	reloadAt int // queries since the last reload
	nextDoc  int // next document to reload

	genTime, writeTime, openTime time.Duration // means per document
	imageBytes                   int64
	nodes                        int

	acc    serveAcc // reset by run
	before processCounters
}

// serveAcc is what the client accumulates over a window.
type serveAcc struct {
	elapsedUS         []time.Duration // server-reported elapsed per answered op
	cached, coalesced int64
	stats             natix.Stats
	results           int64
	reloadLat         []time.Duration
}

func newServeZipf(cfg runConfig) *serveZipf { return &serveZipf{cfg: cfg} }

func (w *serveZipf) docName(i int) string { return fmt.Sprintf("z%d", i) }

func (w *serveZipf) setup() (time.Duration, error) {
	start := time.Now()
	sz := w.cfg.sizes
	var err error
	if w.queries == nil {
		if w.queries, err = tagQueries(sz.ServeQueries, sz.ServeTags); err != nil {
			return 0, err
		}
	}
	if w.dir, err = os.MkdirTemp(w.cfg.outDir, "serve-"); err != nil {
		return 0, err
	}
	w.cat = catalog.New()
	w.names = w.names[:0]
	var mems []*dom.MemDoc
	w.genTime, w.writeTime, w.openTime, w.imageBytes, w.nodes = 0, 0, 0, 0, 0
	for i := 0; i < sz.ServeDocs; i++ {
		t0 := time.Now()
		mem := tagDoc(sz, sz.ServeElements, w.cfg.seed, i)
		t1 := time.Now()
		path := filepath.Join(w.dir, w.docName(i)+".natix")
		if err := store.Write(path, mem); err != nil {
			return 0, err
		}
		t2 := time.Now()
		// The default buffer (256 pages) holds a whole document, so after
		// warm-up reads hit; lib_dblp_store is the cold counterpart.
		if err := w.cat.OpenStore(w.docName(i), path, store.Options{}); err != nil {
			return 0, err
		}
		w.genTime += t1.Sub(t0)
		w.writeTime += t2.Sub(t1)
		w.openTime += time.Since(t2)
		fi, err := os.Stat(path)
		if err != nil {
			return 0, err
		}
		w.imageBytes += fi.Size()
		w.nodes += mem.NodeCount()
		w.names = append(w.names, w.docName(i))
		if w.refs == nil {
			mems = append(mems, mem)
		}
	}
	n := time.Duration(sz.ServeDocs)
	w.genTime, w.writeTime, w.openTime = w.genTime/n, w.writeTime/n, w.openTime/n
	w.cache = plancache.New(sz.ServeCacheEntries, 16<<20)
	w.srv = server.New(server.Config{Catalog: w.cat, Cache: w.cache, PathIndex: true})
	w.ts = httptest.NewServer(w.srv.Handler())
	if w.cfg.trace {
		w.wire = &wireCounters{}
	}
	w.client = client.New(w.ts.URL, w.cfg.seed)
	w.client.HTTPClient, w.trans = oneConnClient(w.wire)
	w.load = newLoadState(w.cfg.seed, 0, sz.ServeZipfS, len(w.queries))
	w.reloadAt, w.nextDoc = 0, 0
	w.acc = serveAcc{}
	built := time.Since(start)

	if w.refs == nil {
		if w.refs, err = serviceRefs(mems, w.queries); err != nil {
			return 0, err
		}
	}

	warmStart := time.Now()
	if err := warm(sz.ServeWarmOps, func(seq int64) opOutcome { return w.op(nil, seq) }); err != nil {
		return 0, fmt.Errorf("serve_zipf_store: %w", err)
	}
	return built + time.Since(warmStart), nil
}

func (w *serveZipf) op(rec *recorder, seq int64) opOutcome {
	ld, acc := &w.load, &w.acc
	ctx := context.Background()
	if w.reloadAt >= w.cfg.sizes.ServeReloadEvery {
		// Counted and timed on its own, never as an op; its effect on the
		// queries after it (plans gone, buffer cold) is what the op
		// metrics see, and its time counts in ops_per_s.
		w.reloadAt = 0
		name := w.names[w.nextDoc]
		w.nextDoc = (w.nextDoc + 1) % len(w.names)
		t0 := time.Now()
		_, err := w.client.Reload(ctx, name)
		if err != nil {
			return opOutcome{fail: "reload:" + name}
		}
		acc.reloadLat = append(acc.reloadLat, time.Since(t0))
		return opOutcome{skip: true}
	}
	w.reloadAt++
	d := ld.rng.Intn(len(w.names))
	k := int(ld.zipf.Uint64())
	q := w.queries[k]
	req := &server.QueryRequest{Query: q.spellings[ld.rng.Intn(2)], Document: w.names[d]}
	sp := rec.begin("client.query", seq, 0)
	t0 := time.Now()
	resp, err := w.client.Query(ctx, req)
	lat := time.Since(t0)
	rec.end(sp)
	if err != nil {
		return opOutcome{lat: lat, fail: q.id}
	}
	if rec != nil {
		rec.add("server.handle", seq, sp, time.Duration(resp.ElapsedUS)*time.Microsecond)
	}
	if !checkResult(&resp.Result, w.refs[d][k]) {
		return opOutcome{lat: lat, fail: q.id}
	}
	acc.elapsedUS = append(acc.elapsedUS, time.Duration(resp.ElapsedUS)*time.Microsecond)
	if resp.Cached {
		acc.cached++
	}
	if resp.Coalesced {
		acc.coalesced++
	}
	addStats(&acc.stats, wireStats(resp.Stats))
	acc.results += int64(resp.Result.Count)
	return opOutcome{lat: lat}
}

// settle reloads every document and then answers every (document, query)
// once: afterwards each document has one generation with one pooled store
// handle, and the plan cache holds every plan. The client's per-op samples,
// which grow with throughput, are dropped.
func (w *serveZipf) settle() error {
	w.acc = serveAcc{}
	ctx := context.Background()
	for _, name := range w.names {
		if _, err := w.client.Reload(ctx, name); err != nil {
			return fmt.Errorf("settle: reload %s: %w", name, err)
		}
	}
	for d, name := range w.names {
		for k, q := range w.queries {
			resp, err := w.client.Query(ctx, &server.QueryRequest{Query: q.spellings[0], Document: name})
			if err != nil {
				return fmt.Errorf("settle: %s on %s: %w", q.id, name, err)
			}
			if !checkResult(&resp.Result, w.refs[d][k]) {
				return fmt.Errorf("settle: wrong answer for %s on %s", q.id, name)
			}
		}
	}
	return nil
}

func (w *serveZipf) run(d time.Duration, rec *recorder) *window {
	w.acc = serveAcc{}
	if rec != nil {
		// The registry's counters (queue wait, buffer hits) only advance
		// while metrics are enabled; the untraced run leaves them off.
		metrics.Enable()
		defer metrics.Disable()
		w.before = readProcessCounters([]*plancache.Cache{w.cache}, w.wire)
	}
	return closedLoop(d, func(seq int64) opOutcome { return w.op(rec, seq) })
}

func (w *serveZipf) layers(traced *window, rec *recorder, out metricSet) error {
	after := readProcessCounters([]*plancache.Cache{w.cache}, w.wire)
	all := w.acc
	ops := traced.attempted
	answered := float64(len(all.elapsedUS))
	serviceLayers(w.before, after, ops, int64(len(all.reloadLat)), ops, out)
	statsLayers(all.stats, all.results, int64(answered), out)
	out.put("server.elapsed_us_p50", us(percentile(all.elapsedUS, 0.50)), len(all.elapsedUS))
	out.put("server.elapsed_us_p95", us(percentile(all.elapsedUS, 0.95)), len(all.elapsedUS))
	cachedShare := ratio(float64(all.cached), answered)
	out.put("server.cached_share", cachedShare, len(all.elapsedUS))
	out.put("server.coalesced_share", ratio(float64(all.coalesced), answered), len(all.elapsedUS))
	out.put("catalog.reloads", float64(len(all.reloadLat)), 1)
	out.put("catalog.reload_ms", ms(mean(all.reloadLat)), len(all.reloadLat))
	out.put("gen.generate_ms", ms(w.genTime), len(w.names))
	out.put("store.write_ms", ms(w.writeTime), len(w.names))
	out.put("store.open_ms", ms(w.openTime), len(w.names))
	out.put("store.image_bytes_per_node", ratio(float64(w.imageBytes), float64(w.nodes)), w.nodes)

	in := querySpellings(w.queries)
	compilePhases(in, rec, out)
	cachePathProbe(in, out)
	prepareProbe(in, natix.Options{EnablePathIndex: true}, 1-cachedShare, mean(traced.lat), out)
	if err := catalogProbe(w.cat, w.names[0], out); err != nil {
		return err
	}
	sz := w.cfg.sizes
	if err := pathIndexProbe(tagDoc(sz, sz.ServeElements, w.cfg.seed, 0), fmt.Sprintf("t%d", sz.ServeTags-1), out); err != nil {
		return err
	}
	// The same request mix straight into the server's handler.
	ld := newLoadState(w.cfg.seed, 1, sz.ServeZipfS, len(w.queries))
	direct, err := directHandler(w.srv.Handler(), func() ([]byte, error) {
		d := ld.rng.Intn(len(w.names))
		q := w.queries[int(ld.zipf.Uint64())]
		return json.Marshal(server.QueryRequest{Query: q.spellings[ld.rng.Intn(2)], Document: w.names[d]})
	})
	if err != nil {
		return err
	}
	frontLayers(direct, traced.lat, out)
	return nil
}

func (w *serveZipf) teardown() error {
	var errs []error
	if w.trans != nil {
		w.trans.CloseIdleConnections()
	}
	if w.ts != nil {
		w.ts.Close()
		w.ts = nil
	}
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, w.srv.Shutdown(ctx))
		cancel()
		w.srv = nil
	}
	if w.cat != nil {
		errs = append(errs, checkCatalogIdle(w.cat))
		w.cat.CloseAll()
		w.cat = nil
	}
	if w.dir != "" {
		errs = append(errs, os.RemoveAll(w.dir))
		w.dir = ""
	}
	w.client, w.trans = nil, nil
	return errors.Join(errs...)
}
