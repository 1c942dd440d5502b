// Command natix-serve runs the HTTP/JSON query service: a document catalog,
// a compiled-plan cache, and a bounded worker pool over the engine.
//
// Usage:
//
//	natix-serve [flags] name=path [name=path ...]
//	natix-serve -coordinator -topology cluster.json [flags]
//
//	natix-serve -addr :8321 books=catalog.xml dblp=dblp.natix
//	curl -s localhost:8321/query -d '{"query":"//book/title","document":"books"}'
//
// Documents whose path ends in .natix are served from the paged store
// (handles are pooled per generation); anything else is parsed into memory
// once and shared by all queries. POST /reload?document=name re-reads a
// document's backing file as a new generation and invalidates its cached
// plans; in-flight queries finish on the old generation.
//
// # Coordinator mode
//
// With -coordinator the process serves no documents itself: it loads a
// JSON topology of shard instances (-topology), health-probes them, routes
// single-document /query calls to the owning shard, and scatter-gathers
// multi-document ("a,b") or wildcard-corpus ("*") queries across all
// healthy shards, merging per-shard document-ordered results into one
// globally ordered answer. POST /topology reloads the shard map; GET
// /buildinfo on every instance lets operators verify shard homogeneity.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"natix"
	"natix/internal/catalog"
	"natix/internal/chaos"
	"natix/internal/cluster"
	"natix/internal/metrics"
	"natix/internal/plancache"
	"natix/internal/server"
	"natix/internal/store"
)

// docSpec is one name=path argument.
type docSpec struct {
	Name, Path string
	Store      bool
}

// parseDocSpecs validates the name=path document arguments. Paths ending in
// .natix are store-backed.
func parseDocSpecs(args []string) ([]docSpec, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("no documents: want at least one name=path argument")
	}
	seen := map[string]bool{}
	specs := make([]docSpec, 0, len(args))
	for _, a := range args {
		name, path, ok := strings.Cut(a, "=")
		if !ok || name == "" || path == "" {
			return nil, fmt.Errorf("bad document %q: want name=path", a)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate document name %q", name)
		}
		seen[name] = true
		specs = append(specs, docSpec{Name: name, Path: path, Store: strings.HasSuffix(path, ".natix")})
	}
	return specs, nil
}

// openAll registers every spec in the catalog.
func openAll(cat *catalog.Catalog, specs []docSpec, bufPages int) error {
	for _, sp := range specs {
		var err error
		if sp.Store {
			err = cat.OpenStore(sp.Name, sp.Path, store.Options{BufferPages: bufPages})
		} else {
			err = cat.OpenMemFile(sp.Name, sp.Path)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// options collects every flag; run consumes it so tests can drive the full
// startup path without a process.
type options struct {
	addr         string
	workers      int
	queue        int
	timeout      time.Duration
	maxTimeout   time.Duration
	limits       natix.Limits
	cacheEntries int
	cacheBytes   int64
	maxNodes     int
	bufPages     int
	pathIndex    bool
	metrics      bool
	debugAddr    string
	chaosSpec    string

	profilePath    string
	warmTopK       int
	noSingleflight bool
	noNormalize    bool

	coordinator   bool
	topologyPath  string
	maxInflight   int
	fanOut        int
	probeInterval time.Duration

	args []string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8321", "listen address")
	flag.IntVar(&o.workers, "workers", 0, "concurrently executing queries (0 = GOMAXPROCS)")
	flag.IntVar(&o.queue, "queue", 0, "admission queue depth beyond the workers (0 = 4x workers)")
	flag.DurationVar(&o.timeout, "timeout", 10*time.Second, "default per-query deadline")
	flag.DurationVar(&o.maxTimeout, "max-timeout", 60*time.Second, "cap on request-supplied deadlines")
	flag.Int64Var(&o.limits.MaxBytes, "max-mem", 0, "per-query materialization budget in bytes (0 = unlimited)")
	flag.Int64Var(&o.limits.MaxTuples, "max-tuples", 0, "per-query tuple budget (0 = unlimited)")
	flag.Int64Var(&o.limits.MaxSteps, "max-steps", 0, "per-query axis-step budget (0 = unlimited)")
	flag.IntVar(&o.cacheEntries, "cache-entries", 256, "plan cache entry budget (0 = no entry bound)")
	flag.Int64Var(&o.cacheBytes, "cache-bytes", 16<<20, "plan cache byte budget (0 = no byte bound)")
	flag.IntVar(&o.maxNodes, "max-result-nodes", 0, "serialized nodes per response before truncation (0 = default 10000)")
	flag.IntVar(&o.bufPages, "buffer", 0, "store buffer capacity in pages per handle (0 = default)")
	flag.BoolVar(&o.pathIndex, "path-index", false, "enable cost-based path-index access-path selection in served plans")
	flag.StringVar(&o.profilePath, "profile", "", "workload profile file: loaded at startup, top-K entries per document saved at shutdown (empty = in-memory only)")
	flag.IntVar(&o.warmTopK, "warm-topk", 0, "hottest profiled queries recompiled per document on reload and /warm (0 = default 8, negative disables warming)")
	flag.BoolVar(&o.noSingleflight, "no-singleflight", false, "do not coalesce identical in-flight query executions")
	flag.BoolVar(&o.noNormalize, "no-normalize", false, "do not canonicalize query text for plan-cache and singleflight keys")
	flag.BoolVar(&o.metrics, "metrics", true, "collect engine metrics (served at /metrics either way)")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "also serve /metrics and /debug/pprof on this address")
	flag.StringVar(&o.chaosSpec, "chaos", "", "fault-injection plan for soak runs, e.g. seed=42,http_latency=0.2:5ms,http_drop=0.05,http_503=0.05,read=0.02,reload_open=0.1 (NEVER in production)")
	flag.BoolVar(&o.coordinator, "coordinator", false, "run as a cluster coordinator over -topology instead of serving documents")
	flag.StringVar(&o.topologyPath, "topology", "", "JSON topology file (coordinator mode)")
	flag.IntVar(&o.maxInflight, "max-inflight", 0, "coordinator: concurrently coordinated queries (0 = 4x GOMAXPROCS)")
	flag.IntVar(&o.fanOut, "fanout", 0, "coordinator: concurrent shard calls per scatter-gathered query (0 = 4x shards)")
	flag.DurationVar(&o.probeInterval, "probe-interval", 500*time.Millisecond, "coordinator: shard health-probe period")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: natix-serve [flags] name=path [name=path ...]\n")
		fmt.Fprintf(os.Stderr, "       natix-serve -coordinator -topology cluster.json [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	o.args = flag.Args()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "natix-serve:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.metrics {
		metrics.Enable()
	}
	if o.debugAddr != "" {
		dbg, err := metrics.Serve(o.debugAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s/metrics\n", dbg)
	}
	var plan *chaos.Plan
	if o.chaosSpec != "" {
		var err error
		plan, err = chaos.Parse(o.chaosSpec)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "natix-serve: CHAOS PLAN ACTIVE (seed %d): %s\n", plan.Seed(), o.chaosSpec)
	}
	if o.coordinator {
		return runCoordinator(o, plan)
	}
	return runShard(o, plan)
}

// runShard serves documents: the single-node service, unchanged per shard
// of a cluster.
func runShard(o options, plan *chaos.Plan) error {
	specs, err := parseDocSpecs(o.args)
	if err != nil {
		return err
	}
	cat := catalog.New()
	defer cat.CloseAll()
	if plan != nil {
		// Every layer the plan can reach: store page reads on every
		// handle, reload failure points, and (below) the HTTP surface.
		cat.OpenHook = plan.OpenStore
		cat.ReloadHook = plan.ReloadHook()
	}
	if err := openAll(cat, specs, o.bufPages); err != nil {
		return err
	}
	for _, info := range cat.List() {
		fmt.Fprintf(os.Stderr, "serving %s (%s, %d nodes) from %s\n",
			info.Name, info.Backend, info.Nodes, info.Path)
	}

	svc := server.New(server.Config{
		Catalog:        cat,
		Cache:          plancache.New(o.cacheEntries, o.cacheBytes),
		Workers:        o.workers,
		QueueDepth:     o.queue,
		DefaultTimeout: o.timeout,
		MaxTimeout:     o.maxTimeout,
		Limits:         o.limits,
		MaxResultNodes: o.maxNodes,
		PathIndex:      o.pathIndex,

		ProfilePath:          o.profilePath,
		WarmTopK:             o.warmTopK,
		DisableSingleflight:  o.noSingleflight,
		DisableNormalization: o.noNormalize,
	})

	handler := svc.Handler()
	if plan != nil {
		handler = plan.Middleware(handler)
	}
	return serveUntilSignal(o.addr, handler, func(ctx context.Context) error {
		return svc.Shutdown(ctx)
	})
}

// runCoordinator serves the cluster front: no documents, a topology of
// shards, scatter-gather routing.
func runCoordinator(o options, plan *chaos.Plan) error {
	if o.topologyPath == "" {
		return fmt.Errorf("coordinator mode needs -topology cluster.json")
	}
	if len(o.args) > 0 {
		return fmt.Errorf("coordinator mode serves no documents; drop the name=path arguments")
	}
	topo, err := cluster.LoadTopologyFile(o.topologyPath)
	if err != nil {
		return err
	}
	cfg := cluster.Config{
		Topology:       topo,
		TopologyPath:   o.topologyPath,
		MaxInflight:    o.maxInflight,
		FanOut:         o.fanOut,
		DefaultTimeout: o.timeout,
		MaxTimeout:     o.maxTimeout,
		ProbeInterval:  o.probeInterval,

		DisableSingleflight: o.noSingleflight,
	}
	if plan != nil {
		// Outbound coordinator→shard faults ride the transport; inbound
		// faults ride the middleware below, exactly like a shard.
		cfg.WrapTransport = plan.ShardTransport
	}
	coord, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	defer coord.Close()
	for _, id := range topo.ShardIDs() {
		sh, _ := topo.Shard(id)
		fmt.Fprintf(os.Stderr, "coordinating shard %s at %s\n", id, strings.Join(sh.Endpoints, ", "))
	}

	handler := coord.Handler()
	if plan != nil {
		handler = plan.Middleware(handler)
	}
	return serveUntilSignal(o.addr, handler, func(ctx context.Context) error {
		return coord.Shutdown(ctx)
	})
}

// serveUntilSignal listens on addr, serves handler, and on SIGINT/SIGTERM
// drains the service (drain callback) before stopping the HTTP listener.
func serveUntilSignal(addr string, handler http.Handler, drain func(context.Context) error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	// The smoke harness greps for this line; keep it on stdout and stable.
	fmt.Printf("natix-serve: listening on http://%s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "natix-serve: %v, draining\n", s)
	}

	// Drain the query service first (new queries 503, in-flight finish),
	// then stop accepting connections and wait for handlers to return.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "natix-serve: drained, bye")
	return nil
}
