package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"natix/internal/client"
	"natix/internal/metrics"
	"natix/internal/server"
)

// Coordinator metrics, on the process-wide default registry.
var (
	mCoordRequests = metrics.Default.Counter("natix_coord_requests_total", "Queries accepted by the coordinator.")
	mCoordRejected = metrics.Default.Counter("natix_coord_rejected_total", "Queries rejected by coordinator admission control.")
	mCoordErrors   = metrics.Default.Counter("natix_coord_errors_total", "Coordinated queries that failed.")
	mCoordScatter  = metrics.Default.Counter("natix_coord_scatter_total", "Queries scatter-gathered across shards (vs routed to one).")
	mCoordPartial  = metrics.Default.Counter("natix_coord_partial_total", "Scatter-gathered queries answered with a partial envelope.")
	mCoordTime     = metrics.Default.Histogram("natix_coord_request_seconds", "End-to-end coordinator /query latency.")
	mCoordFanout   = metrics.Default.Histogram("natix_coord_fanout_documents", "Documents fanned out per scatter-gathered query.")
	mShardReqs     = metrics.Default.CounterVec("natix_coord_shard_requests_total", "Coordinator->shard query calls, by shard.", "shard")
	mShardErrs     = metrics.Default.CounterVec("natix_coord_shard_errors_total", "Failed coordinator->shard query calls, by shard.", "shard")
	mShardMicros   = metrics.Default.CounterVec("natix_coord_shard_micros_total", "Cumulative coordinator->shard call latency in microseconds, by shard (divide by the request counter for the mean).", "shard")
	mShardsHealthy = metrics.Default.Gauge("natix_coord_healthy_shards", "Shards currently considered healthy by the prober.")
	mTopoReloads   = metrics.Default.Counter("natix_coord_topology_reloads_total", "Topology reloads installed.")
	mProbes        = metrics.Default.Counter("natix_coord_probes_total", "Health-probe rounds completed.")
	mCoordWarmed   = metrics.Default.Counter("natix_coord_warmed_plans_total", "Shard plans pre-warmed by coordinator reload fan-outs and topology swaps.")
)

// Config configures a Coordinator. Zero fields take the documented
// defaults.
type Config struct {
	// Topology is the initial shard map (required).
	Topology *Topology
	// TopologyPath, when set, backs POST /topology: an empty body re-reads
	// the file, a JSON body is validated, atomically written to the file,
	// and installed.
	TopologyPath string

	// MaxInflight bounds concurrently coordinated queries; beyond it
	// /query answers a structured 429 (default 4x GOMAXPROCS). The shards
	// keep their own admission queues — this bound only stops the
	// coordinator from buffering unbounded fan-out state.
	MaxInflight int
	// FanOut bounds concurrent shard calls within one scatter-gathered
	// query (default 4x shard count, at least 4).
	FanOut int
	// DefaultTimeout applies when a request names none (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps request-supplied timeouts (default 60s).
	MaxTimeout time.Duration

	// ProbeInterval is the health-probe period (default 500ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round (default 2s).
	ProbeTimeout time.Duration
	// UnhealthyAfter flips a shard unhealthy after this many consecutive
	// failed probe rounds (default 2); HealthyAfter flips it back after
	// this many consecutive successes (default 2). The hysteresis keeps a
	// flapping shard from oscillating in and out of the routing table on
	// every probe.
	UnhealthyAfter int
	HealthyAfter   int

	// DisableSingleflight turns off coordinator-level coalescing of
	// identical in-flight queries (each request then fans out to shards
	// independently; the shards still coalesce their own executions).
	DisableSingleflight bool

	// MaxRetries bounds the per-call retry attempts of the shard clients
	// (default 2; the coordinator sits on the request path, so its retry
	// budget is deliberately smaller than the standalone client's 4).
	MaxRetries int
	// ClientSeed seeds the shard clients' backoff jitter (default 1).
	ClientSeed int64
	// Pool configures the shared coordinator->shard connection pool.
	Pool client.Pool
	// WrapTransport, when non-nil, wraps the shard transport — the chaos
	// plan's ShardTransport injects coordinator->shard faults here.
	WrapTransport func(http.RoundTripper) http.RoundTripper
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.FanOut <= 0 {
		n := 4
		if c.Topology != nil {
			n = 4 * len(c.Topology.ShardIDs())
		}
		c.FanOut = max(4, n)
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.UnhealthyAfter <= 0 {
		c.UnhealthyAfter = 2
	}
	if c.HealthyAfter <= 0 {
		c.HealthyAfter = 2
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.ClientSeed == 0 {
		c.ClientSeed = 1
	}
	return c
}

// docMeta is what the prober learned about one document on one shard.
type docMeta struct {
	Generation uint64
	IndexEpoch uint64
}

// shardState is the coordinator's live view of one shard: clients, health
// hysteresis, and the observed document placement.
type shardState struct {
	id        string
	endpoints []string
	clients   []*client.Client // retrying, one per endpoint
	probes    []*client.Client // non-retrying, for health probes
	healthy   atomic.Bool      // hysteresis-filtered reachability
	ready     atomic.Bool      // instantaneous /healthz/ready verdict
	epIdx     atomic.Int32     // preferred endpoint index

	mu         sync.Mutex
	consecOK   int
	consecFail int
	lastErr    string
	lastProbe  time.Time
	docs       map[string]docMeta
}

// client returns the shard's retrying client on the preferred endpoint.
func (sh *shardState) client() *client.Client {
	i := int(sh.epIdx.Load())
	if i < 0 || i >= len(sh.clients) {
		i = 0
	}
	return sh.clients[i]
}

// endpoint returns the preferred endpoint URL.
func (sh *shardState) endpoint() string {
	i := int(sh.epIdx.Load())
	if i < 0 || i >= len(sh.endpoints) {
		i = 0
	}
	return sh.endpoints[i]
}

// hasDoc reports whether the prober saw doc on this shard.
func (sh *shardState) hasDoc(doc string) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.docs[doc]
	return ok
}

// clusterState is one installed topology with its per-shard state. Installs
// swap the whole struct atomically; in-flight queries finish on the state
// they started with.
type clusterState struct {
	topo   *Topology
	shards map[string]*shardState
	order  []string // shard IDs, sorted
}

// resolve returns the shard serving doc: observed placement first (the
// catalog is the truth), the hash owner as the fallback for documents no
// probe has seen yet. Observed placement scans shards in sorted-ID order so
// a document erroneously present on two shards routes deterministically.
func (st *clusterState) resolve(doc string) *shardState {
	for _, id := range st.order {
		if st.shards[id].hasDoc(doc) {
			return st.shards[id]
		}
	}
	return st.shards[st.topo.Owner(doc)]
}

// docUnion returns every observed document sorted by name, with its
// serving shard.
func (st *clusterState) docUnion() ([]string, map[string]*shardState) {
	owner := map[string]*shardState{}
	for _, id := range st.order {
		sh := st.shards[id]
		sh.mu.Lock()
		for d := range sh.docs {
			if _, ok := owner[d]; !ok {
				owner[d] = sh
			}
		}
		sh.mu.Unlock()
	}
	names := make([]string, 0, len(owner))
	for d := range owner {
		names = append(names, d)
	}
	sort.Strings(names)
	return names, owner
}

// Coordinator scatter-gathers /query across a topology of natix-serve
// shards. Use New, mount Handler, call Shutdown then Close.
type Coordinator struct {
	cfg   Config
	state atomic.Pointer[clusterState]
	httpc *http.Client

	coordFlightState
	coalesced atomic.Int64

	slots    chan struct{}
	jobWG    sync.WaitGroup
	draining atomic.Bool
	start    time.Time

	warmMu   sync.Mutex
	lastWarm *WarmSummary

	reloadMu sync.Mutex // serializes topology installs
	stop     chan struct{}
	done     chan struct{}
}

// Coalesced reports how many queries this coordinator answered by joining
// an in-flight identical fan-out.
func (c *Coordinator) Coalesced() int64 { return c.coalesced.Load() }

// New builds a Coordinator over cfg.Topology and starts its health-probe
// loop. Shards start optimistically healthy: a cold coordinator routes
// immediately and the prober demotes what does not answer.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("cluster: Config.Topology is required")
	}
	cfg = cfg.withDefaults()
	var rt http.RoundTripper = cfg.Pool.Transport()
	if cfg.WrapTransport != nil {
		rt = cfg.WrapTransport(rt)
	}
	c := &Coordinator{
		cfg:   cfg,
		httpc: &http.Client{Transport: rt},
		slots: make(chan struct{}, cfg.MaxInflight),
		start: time.Now(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	c.flights = map[string]*coordFlight{}
	c.install(cfg.Topology)
	go c.probeLoop()
	return c, nil
}

// newShardState builds the per-shard clients (shared transport).
func (c *Coordinator) newShardState(sh ShardSpec, seq int) *shardState {
	st := &shardState{id: sh.ID, endpoints: sh.Endpoints, docs: map[string]docMeta{}}
	for i, ep := range sh.Endpoints {
		cl := client.New(ep, c.cfg.ClientSeed+int64(seq*16+i))
		cl.HTTPClient = c.httpc
		cl.MaxRetries = c.cfg.MaxRetries
		st.clients = append(st.clients, cl)
		pr := client.New(ep, c.cfg.ClientSeed+int64(seq*16+i)+7)
		pr.HTTPClient = c.httpc
		pr.MaxRetries = -1 // probes never retry: a failed round IS the signal
		st.probes = append(st.probes, pr)
	}
	st.healthy.Store(true)
	st.consecOK = c.cfg.HealthyAfter
	return st
}

// install swaps in a new topology, carrying over the health and placement
// state of shards whose identity (ID + endpoint list) is unchanged so a
// topology edit never resets the prober's hysteresis on untouched shards.
func (c *Coordinator) install(topo *Topology) (carried int) {
	c.reloadMu.Lock()
	defer c.reloadMu.Unlock()
	prev := c.state.Load()
	st := &clusterState{topo: topo, shards: map[string]*shardState{}, order: topo.ShardIDs()}
	for seq, id := range st.order {
		spec, _ := topo.Shard(id)
		if prev != nil {
			if old, ok := prev.shards[id]; ok && equalStrings(old.endpoints, spec.Endpoints) {
				st.shards[id] = old
				carried++
				continue
			}
		}
		st.shards[id] = c.newShardState(spec, seq)
	}
	c.state.Store(st)
	c.updateHealthyGauge(st)
	return carried
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Shutdown drains: new queries answer 503, in-flight coordinated queries
// finish (bounded by their own deadlines). The context bounds the wait.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.draining.Store(true)
	drained := make(chan struct{})
	go func() {
		c.jobWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops the probe loop and releases pooled connections. Call after
// Shutdown.
func (c *Coordinator) Close() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
		<-c.done
	}
	c.httpc.CloseIdleConnections()
}

// QueryRequest is the coordinator's /query body: the single-node request
// plus the scatter-gather controls. Document routes as:
//
//	"name"    → the owning shard (observed placement, else hash owner)
//	"a,b,c"   → scatter over the named documents
//	"*"       → scatter over every observed document in the cluster
type QueryRequest struct {
	server.QueryRequest
	// AllowPartial accepts an answer missing documents whose shard failed:
	// the response carries partial=true and the explicit failed list. When
	// false (the default), any failed document fails the query with the
	// first failure in global document order.
	AllowPartial bool `json:"allow_partial,omitempty"`
}

// DocResult is one document's slice of a scatter-gathered answer.
type DocResult struct {
	Document   string             `json:"document"`
	Shard      string             `json:"shard"`
	Generation uint64             `json:"generation"`
	Cached     bool               `json:"cached"`
	Result     server.QueryResult `json:"result"`
	Stats      server.QueryStats  `json:"stats"`
}

// DocFailure is one document the cluster could not answer for, listed in a
// partial envelope. A partial answer is never silently truncated: every
// missing document appears here, with the shard and the failure.
type DocFailure struct {
	Document string `json:"document"`
	Shard    string `json:"shard"`
	Code     string `json:"code"`
	Message  string `json:"message"`
}

// ShardTiming is the per-shard slice of the coordinator's timing
// breakdown — the scatter-gather analogue of ExplainAnalyze's per-operator
// lines.
type ShardTiming struct {
	Shard    string `json:"shard"`
	Endpoint string `json:"endpoint"`
	// Calls is the fan-out width to this shard (documents routed there).
	Calls  int `json:"calls"`
	Errors int `json:"errors,omitempty"`
	// ElapsedUS is the cumulative shard-call latency; MaxUS the slowest
	// single call (the scatter's critical path through this shard).
	ElapsedUS int64 `json:"elapsed_us"`
	MaxUS     int64 `json:"max_us"`
}

// QueryResponse is the coordinator's /query answer. Single-document
// queries fill Document/Generation/Cached exactly like a shard would;
// scatter-gathered queries fill PerDocument (global document order) and,
// when every per-document result is a node-set, the merged Result.
type QueryResponse struct {
	Document   string `json:"document,omitempty"`
	Generation uint64 `json:"generation,omitempty"`
	Cached     bool   `json:"cached,omitempty"`

	// Partial marks an answer missing documents (AllowPartial was set and
	// some failed); Failed lists exactly which, in global document order.
	Partial bool         `json:"partial,omitempty"`
	Failed  []DocFailure `json:"failed,omitempty"`
	// PerDocument carries each document's own result, in global document
	// order (sorted by name).
	PerDocument []DocResult `json:"per_document,omitempty"`

	Result    *server.QueryResult `json:"result,omitempty"`
	Stats     server.QueryStats   `json:"stats"`
	ElapsedUS int64               `json:"elapsed_us"`
	Shards    []ShardTiming       `json:"shards,omitempty"`

	// Coalesced marks an answer served by joining an identical in-flight
	// coordinator fan-out rather than calling any shard.
	Coalesced bool `json:"coalesced,omitempty"`
}

// Handler returns the coordinator's HTTP mux.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", c.handleQuery)
	mux.HandleFunc("/documents", c.handleDocuments)
	mux.HandleFunc("/reload", c.handleReload)
	mux.HandleFunc("/topology", c.handleTopology)
	mux.HandleFunc("/healthz", c.handleHealthz)
	mux.HandleFunc("/healthz/live", c.handleLive)
	mux.HandleFunc("/healthz/ready", c.handleReady)
	mux.HandleFunc("/buildinfo", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, server.NewBuildInfo("coordinator", server.BuildFeatures{Batch: true}))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		metrics.Default.WritePrometheus(w)
	})
	return mux
}

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, errf(http.StatusMethodNotAllowed, server.CodeBadRequest, "POST only"))
		return
	}
	if c.draining.Load() {
		mCoordRejected.Inc()
		writeErr(w, errf(http.StatusServiceUnavailable, server.CodeShuttingDown, "coordinator is draining"))
		return
	}
	var req QueryRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, errf(http.StatusBadRequest, server.CodeBadRequest, "bad request body: %v", err))
		return
	}
	if req.Query == "" || req.Document == "" {
		writeErr(w, errf(http.StatusBadRequest, server.CodeBadRequest, "query and document are required"))
		return
	}

	c.jobWG.Add(1)
	defer c.jobWG.Done()
	if c.draining.Load() {
		mCoordRejected.Inc()
		writeErr(w, errf(http.StatusServiceUnavailable, server.CodeShuttingDown, "coordinator is draining"))
		return
	}

	timeout := c.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout > c.cfg.MaxTimeout {
			timeout = c.cfg.MaxTimeout
		}
	}

	if c.cfg.DisableSingleflight {
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		resp, apiErr := c.admitAndRoute(ctx, &req)
		if apiErr != nil {
			mCoordErrors.Inc()
			writeErr(w, apiErr)
			return
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}

	// Singleflight: identical in-flight queries share one fan-out. Joining
	// happens before slot admission — a joiner consumes no shard call, so
	// it must never be turned away by the inflight bound.
	k := flightKey(&req, c.state.Load().topo.Generation())
	execCtx, execCancel := context.WithTimeout(context.Background(), timeout)
	f, leader := c.joinOrLead(k, execCancel)
	if !leader {
		execCancel() // joined: the leader's context drives the fan-out
		c.coalesced.Add(1)
		if metrics.Enabled() {
			mCoordCoalesced.Inc()
		}
		waitCtx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		select {
		case <-f.done:
			if f.err != nil {
				mCoordErrors.Inc()
				writeErr(w, f.err)
				return
			}
			cp := *f.resp
			cp.Coalesced = true
			writeJSON(w, http.StatusOK, &cp)
		case <-waitCtx.Done():
			f.leave()
			writeErr(w, errf(http.StatusGatewayTimeout, server.CodeTimeout,
				"request expired awaiting a coalesced fan-out"))
		}
		return
	}
	// Leader: fan out on a context detached from this HTTP request, so a
	// joiner (or this request's own client) cancelling cannot kill an
	// execution others still await. Admission rejection and shard failure
	// fan the same typed error to every waiter.
	resp, apiErr := c.admitAndRoute(execCtx, &req)
	c.finishFlight(k, f, resp, apiErr)
	execCancel() // flight complete; release the detached timer
	if apiErr != nil {
		mCoordErrors.Inc()
		writeErr(w, apiErr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// admitAndRoute applies the inflight bound and dispatches one query — the
// shared tail of the singleflight-leader and singleflight-off paths. A full
// coordinator answers a structured 429 immediately: the same contract as a
// shard's admission queue, one layer up.
func (c *Coordinator) admitAndRoute(ctx context.Context, req *QueryRequest) (*QueryResponse, *apiError) {
	select {
	case c.slots <- struct{}{}:
		defer func() { <-c.slots }()
	default:
		mCoordRejected.Inc()
		return nil, errf(http.StatusTooManyRequests, server.CodeOverloaded,
			"coordinator at max inflight (%d)", c.cfg.MaxInflight)
	}
	mCoordRequests.Inc()
	started := time.Now()
	if metrics.Enabled() {
		defer func() { mCoordTime.ObserveDuration(time.Since(started)) }()
	}
	st := c.state.Load()
	return c.route(ctx, st, req, started)
}

// route dispatches one admitted query: single-document to the owning
// shard, lists and wildcards through the scatter-gather path.
func (c *Coordinator) route(ctx context.Context, st *clusterState, req *QueryRequest, started time.Time) (*QueryResponse, *apiError) {
	switch {
	case req.Document == "*":
		docs, owner := st.docUnion()
		if len(docs) == 0 {
			return nil, errf(http.StatusNotFound, server.CodeUnknownDoc,
				"no documents discovered yet: the prober has not seen any shard catalog")
		}
		return c.scatter(ctx, st, req, docs, owner, started)
	case strings.Contains(req.Document, ","):
		seen := map[string]bool{}
		var docs []string
		for _, d := range strings.Split(req.Document, ",") {
			d = strings.TrimSpace(d)
			if d == "" {
				return nil, errf(http.StatusBadRequest, server.CodeBadRequest,
					"empty document name in list %q", req.Document)
			}
			if !seen[d] {
				seen[d] = true
				docs = append(docs, d)
			}
		}
		sort.Strings(docs) // global document order is sorted-by-name
		return c.scatter(ctx, st, req, docs, nil, started)
	default:
		return c.single(ctx, st, req, started)
	}
}

// single routes a one-document query to its owning shard and passes the
// shard's answer through, with the coordinator's timing breakdown added.
func (c *Coordinator) single(ctx context.Context, st *clusterState, req *QueryRequest, started time.Time) (*QueryResponse, *apiError) {
	sh := st.resolve(req.Document)
	if !sh.healthy.Load() {
		return nil, shardDownErr(sh, req.Document)
	}
	inner := req.QueryRequest
	t0 := time.Now()
	resp, err := sh.client().Query(ctx, &inner)
	elapsed := time.Since(t0)
	noteShardCall(sh, elapsed, err)
	timing := []ShardTiming{{
		Shard: sh.id, Endpoint: sh.endpoint(), Calls: 1,
		ElapsedUS: elapsed.Microseconds(), MaxUS: elapsed.Microseconds(),
	}}
	if err != nil {
		timing[0].Errors = 1
		return nil, envelopeFrom(err, req.Document, sh.id)
	}
	return &QueryResponse{
		Document:   resp.Document,
		Generation: resp.Generation,
		Cached:     resp.Cached,
		Result:     &resp.Result,
		Stats:      resp.Stats,
		ElapsedUS:  time.Since(started).Microseconds(),
		Shards:     timing,
	}, nil
}

// scatter fans req out over docs (already in global document order), one
// shard call per document, bounded by FanOut, and merges the results in
// sequence order. owner, when non-nil, pre-resolves each document's shard
// (the wildcard path already walked the placement map).
func (c *Coordinator) scatter(ctx context.Context, st *clusterState, req *QueryRequest, docs []string, owner map[string]*shardState, started time.Time) (*QueryResponse, *apiError) {
	mCoordScatter.Inc()
	if metrics.Enabled() {
		mCoordFanout.Observe(float64(len(docs)))
	}
	outcomes := make([]docOutcome, len(docs))
	sem := make(chan struct{}, c.cfg.FanOut)
	var wg sync.WaitGroup
	for seq, doc := range docs {
		out := &outcomes[seq]
		out.seq, out.doc = seq, doc
		sh := (*shardState)(nil)
		if owner != nil {
			sh = owner[doc]
		}
		if sh == nil {
			sh = st.resolve(doc)
		}
		out.shard = sh
		if !sh.healthy.Load() {
			out.err = errShardDown
			continue
		}
		wg.Add(1)
		go func(out *docOutcome) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				out.err = ctx.Err()
				return
			}
			inner := req.QueryRequest
			inner.Document = out.doc
			t0 := time.Now()
			out.resp, out.err = out.shard.client().Query(ctx, &inner)
			out.elapsed = time.Since(t0)
			noteShardCall(out.shard, out.elapsed, out.err)
		}(out)
	}
	wg.Wait()

	merged := mergeOutcomes(outcomes)
	if len(merged.failed) > 0 && !req.AllowPartial {
		// Deterministic first-error propagation: the failure surfaced is
		// the one earliest in global document order, regardless of which
		// shard answered first, so a retried query reports the same error.
		f := merged.firstErr
		return nil, f
	}
	resp := &QueryResponse{
		Partial:     len(merged.failed) > 0,
		Failed:      merged.failed,
		PerDocument: merged.perDoc,
		Result:      merged.result,
		Stats:       merged.stats,
		ElapsedUS:   time.Since(started).Microseconds(),
		Shards:      shardTimings(outcomes),
	}
	if resp.Partial {
		mCoordPartial.Inc()
	}
	return resp, nil
}

// noteShardCall records per-shard latency/error metrics for one call.
func noteShardCall(sh *shardState, elapsed time.Duration, err error) {
	if !metrics.Enabled() {
		return
	}
	mShardReqs.With(sh.id).Inc()
	mShardMicros.With(sh.id).Add(elapsed.Microseconds())
	if err != nil {
		mShardErrs.With(sh.id).Inc()
	}
}

// shardTimings aggregates per-document outcomes into the per-shard
// breakdown, sorted by shard ID.
func shardTimings(outcomes []docOutcome) []ShardTiming {
	agg := map[string]*ShardTiming{}
	for i := range outcomes {
		o := &outcomes[i]
		if o.shard == nil {
			continue
		}
		t, ok := agg[o.shard.id]
		if !ok {
			t = &ShardTiming{Shard: o.shard.id, Endpoint: o.shard.endpoint()}
			agg[o.shard.id] = t
		}
		t.Calls++
		t.ElapsedUS += o.elapsed.Microseconds()
		if us := o.elapsed.Microseconds(); us > t.MaxUS {
			t.MaxUS = us
		}
		if o.err != nil {
			t.Errors++
		}
	}
	out := make([]ShardTiming, 0, len(agg))
	for _, t := range agg {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out
}

// ReloadDocStatus is one document's row of the coordinator's /reload
// answer: the owning shard's reload report, warm-up status included.
type ReloadDocStatus struct {
	Document         string `json:"document"`
	Shard            string `json:"shard"`
	Generation       uint64 `json:"generation,omitempty"`
	PlansInvalidated int    `json:"plans_invalidated"`
	Warmed           int    `json:"warmed"`
	WarmCompileUS    int64  `json:"warm_compile_us"`
	Error            string `json:"error,omitempty"`
}

// ReloadShardStatus aggregates one shard's slice of a reload fan-out.
type ReloadShardStatus struct {
	Shard         string `json:"shard"`
	Documents     int    `json:"documents"`
	Warmed        int    `json:"warmed"`
	WarmCompileUS int64  `json:"warm_compile_us"`
	Errors        int    `json:"errors,omitempty"`
}

// handleReload fans POST /reload?document= out to the shards serving the
// named documents — a single name, a comma list, or "*" for every observed
// document — and aggregates each shard's reload and cache warm-up report.
// Failures are per-document and explicit, never silently dropped: the
// answer is the cluster-level analogue of a shard's own reload response.
func (c *Coordinator) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, errf(http.StatusMethodNotAllowed, server.CodeBadRequest, "POST only"))
		return
	}
	name := r.URL.Query().Get("document")
	if name == "" {
		writeErr(w, errf(http.StatusBadRequest, server.CodeBadRequest, "missing ?document="))
		return
	}
	st := c.state.Load()
	var docs []string
	var owner map[string]*shardState
	if name == "*" {
		docs, owner = st.docUnion()
		if len(docs) == 0 {
			writeErr(w, errf(http.StatusNotFound, server.CodeUnknownDoc,
				"no documents discovered yet: the prober has not seen any shard catalog"))
			return
		}
	} else {
		seen := map[string]bool{}
		for _, d := range strings.Split(name, ",") {
			d = strings.TrimSpace(d)
			if d == "" {
				writeErr(w, errf(http.StatusBadRequest, server.CodeBadRequest,
					"empty document name in list %q", name))
				return
			}
			if !seen[d] {
				seen[d] = true
				docs = append(docs, d)
			}
		}
		sort.Strings(docs)
	}
	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.MaxTimeout)
	defer cancel()

	out := make([]ReloadDocStatus, len(docs))
	sem := make(chan struct{}, c.cfg.FanOut)
	var wg sync.WaitGroup
	for i, doc := range docs {
		sh := (*shardState)(nil)
		if owner != nil {
			sh = owner[doc]
		}
		if sh == nil {
			sh = st.resolve(doc)
		}
		out[i] = ReloadDocStatus{Document: doc, Shard: sh.id}
		if !sh.healthy.Load() {
			out[i].Error = "shard " + sh.id + " is down"
			continue
		}
		wg.Add(1)
		go func(out *ReloadDocStatus, doc string, sh *shardState) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				out.Error = ctx.Err().Error()
				return
			}
			res, err := sh.client().Reload(ctx, doc)
			if err != nil {
				out.Error = err.Error()
				return
			}
			out.Generation = res.Generation
			out.PlansInvalidated = res.PlansInvalidated
			out.Warmed = res.Warmed
			out.WarmCompileUS = res.WarmCompileUS
		}(&out[i], doc, sh)
	}
	wg.Wait()

	agg := map[string]*ReloadShardStatus{}
	warmed, failures := 0, 0
	for i := range out {
		o := &out[i]
		t, ok := agg[o.Shard]
		if !ok {
			t = &ReloadShardStatus{Shard: o.Shard}
			agg[o.Shard] = t
		}
		t.Documents++
		t.Warmed += o.Warmed
		t.WarmCompileUS += o.WarmCompileUS
		warmed += o.Warmed
		if o.Error != "" {
			t.Errors++
			failures++
		}
	}
	shards := make([]ReloadShardStatus, 0, len(agg))
	for _, t := range agg {
		shards = append(shards, *t)
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i].Shard < shards[j].Shard })
	if warmed > 0 && metrics.Enabled() {
		mCoordWarmed.Add(int64(warmed))
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"documents": out,
		"shards":    shards,
		"warmed":    warmed,
		"errors":    failures,
	})
}

// ShardWarm is one shard's slice of a cluster-wide pre-warm pass.
type ShardWarm struct {
	Shard         string `json:"shard"`
	Documents     int    `json:"documents"`
	Warmed        int    `json:"warmed"`
	WarmCompileUS int64  `json:"warm_compile_us"`
	Errors        int    `json:"errors,omitempty"`
}

// WarmSummary reports one cluster-wide pre-warm pass, aggregated per shard.
type WarmSummary struct {
	Documents int         `json:"documents"`
	Warmed    int         `json:"warmed"`
	Errors    int         `json:"errors,omitempty"`
	Shards    []ShardWarm `json:"shards,omitempty"`
}

// warmAll fans POST /warm across every observed (document, shard) pair, so
// a topology swap does not leave re-homed documents serving their first
// queries from a cold plan cache. The aggregate is retained and reported on
// GET /topology as last_warm.
func (c *Coordinator) warmAll(ctx context.Context) WarmSummary {
	st := c.state.Load()
	docs, owner := st.docUnion()
	sum := WarmSummary{Documents: len(docs)}
	agg := map[string]*ShardWarm{}
	var mu sync.Mutex
	sem := make(chan struct{}, c.cfg.FanOut)
	var wg sync.WaitGroup
	for _, doc := range docs {
		sh := owner[doc]
		shardAgg := func() *ShardWarm {
			t, ok := agg[sh.id]
			if !ok {
				t = &ShardWarm{Shard: sh.id}
				agg[sh.id] = t
			}
			return t
		}
		if !sh.healthy.Load() {
			t := shardAgg()
			t.Documents++
			t.Errors++
			sum.Errors++
			continue
		}
		shardAgg().Documents++
		wg.Add(1)
		go func(doc string, sh *shardState) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				mu.Lock()
				agg[sh.id].Errors++
				sum.Errors++
				mu.Unlock()
				return
			}
			res, err := sh.client().Warm(ctx, doc)
			mu.Lock()
			defer mu.Unlock()
			t := agg[sh.id]
			if err != nil {
				t.Errors++
				sum.Errors++
				return
			}
			t.Warmed += res.Warmed
			t.WarmCompileUS += res.WarmCompileUS
			sum.Warmed += res.Warmed
		}(doc, sh)
	}
	wg.Wait()
	sum.Shards = make([]ShardWarm, 0, len(agg))
	for _, t := range agg {
		sum.Shards = append(sum.Shards, *t)
	}
	sort.Slice(sum.Shards, func(i, j int) bool { return sum.Shards[i].Shard < sum.Shards[j].Shard })
	if sum.Warmed > 0 && metrics.Enabled() {
		mCoordWarmed.Add(int64(sum.Warmed))
	}
	c.warmMu.Lock()
	c.lastWarm = &sum
	c.warmMu.Unlock()
	return sum
}

func (c *Coordinator) handleDocuments(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, errf(http.StatusMethodNotAllowed, server.CodeBadRequest, "GET only"))
		return
	}
	st := c.state.Load()
	type docEntry struct {
		Name       string `json:"name"`
		Shard      string `json:"shard"`
		Generation uint64 `json:"generation"`
		IndexEpoch uint64 `json:"index_epoch"`
	}
	names, owner := st.docUnion()
	out := make([]docEntry, 0, len(names))
	for _, n := range names {
		sh := owner[n]
		sh.mu.Lock()
		meta := sh.docs[n]
		sh.mu.Unlock()
		out = append(out, docEntry{Name: n, Shard: sh.id, Generation: meta.Generation, IndexEpoch: meta.IndexEpoch})
	}
	writeJSON(w, http.StatusOK, map[string]any{"documents": out})
}

// ShardStatus is one shard's row of the GET /topology answer.
type ShardStatus struct {
	ID        string   `json:"id"`
	Endpoints []string `json:"endpoints"`
	Healthy   bool     `json:"healthy"`
	Ready     bool     `json:"ready"`
	// ConsecutiveFailures is the prober's current failure streak (the
	// hysteresis counter, not a lifetime total).
	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
	LastError           string `json:"last_error,omitempty"`
	Documents           int    `json:"documents"`
	LastProbeMS         int64  `json:"last_probe_ms_ago,omitempty"`
}

func (c *Coordinator) topologyStatus() (uint64, int, []ShardStatus) {
	st := c.state.Load()
	out := make([]ShardStatus, 0, len(st.order))
	for _, id := range st.order {
		sh := st.shards[id]
		sh.mu.Lock()
		s := ShardStatus{
			ID: id, Endpoints: sh.endpoints,
			Healthy: sh.healthy.Load(), Ready: sh.ready.Load(),
			ConsecutiveFailures: sh.consecFail, LastError: sh.lastErr,
			Documents: len(sh.docs),
		}
		if !sh.lastProbe.IsZero() {
			s.LastProbeMS = time.Since(sh.lastProbe).Milliseconds()
		}
		sh.mu.Unlock()
		out = append(out, s)
	}
	return st.topo.Generation(), st.topo.VNodes(), out
}

func (c *Coordinator) handleTopology(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		gen, vnodes, shards := c.topologyStatus()
		out := map[string]any{
			"generation": gen, "vnodes": vnodes, "shards": shards,
		}
		c.warmMu.Lock()
		if c.lastWarm != nil {
			out["last_warm"] = *c.lastWarm
		}
		c.warmMu.Unlock()
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			writeErr(w, errf(http.StatusBadRequest, server.CodeBadRequest, "read body: %v", err))
			return
		}
		var topo *Topology
		if len(body) == 0 {
			// Empty body: re-read the topology file (the operator edited it
			// in place, atomically).
			if c.cfg.TopologyPath == "" {
				writeErr(w, errf(http.StatusBadRequest, server.CodeBadRequest,
					"no topology file configured; POST the new topology as the body"))
				return
			}
			topo, err = LoadTopologyFile(c.cfg.TopologyPath)
			if err != nil {
				writeErr(w, errf(http.StatusBadRequest, server.CodeBadRequest, "%v", err))
				return
			}
		} else {
			topo, err = ParseTopology(body)
			if err != nil {
				writeErr(w, errf(http.StatusBadRequest, server.CodeBadRequest, "%v", err))
				return
			}
			if c.cfg.TopologyPath != "" {
				// Persist before installing, under the atomic-rename
				// contract: a crash between the write and the install
				// leaves a coordinator that re-reads the new file at
				// startup — never a torn topology.
				if err := topo.Save(c.cfg.TopologyPath); err != nil {
					writeErr(w, errf(http.StatusInternalServerError, server.CodeStoreFault, "persist topology: %v", err))
					return
				}
			}
		}
		carried := c.install(topo)
		mTopoReloads.Inc()
		// Probe the new topology promptly so fresh shards demote fast if
		// dead, then pre-warm each shard's plan cache for the documents the
		// probe placed on it — a swap must not serve its first queries cold.
		// The caller's answer does not wait for either.
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
			c.ProbeNow(ctx)
			cancel()
			wctx, wcancel := context.WithTimeout(context.Background(), c.cfg.MaxTimeout)
			defer wcancel()
			c.warmAll(wctx)
		}()
		writeJSON(w, http.StatusOK, map[string]any{
			"generation": topo.Generation(), "shards": len(topo.ShardIDs()), "carried_over": carried,
		})
	default:
		writeErr(w, errf(http.StatusMethodNotAllowed, server.CodeBadRequest, "GET or POST only"))
	}
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	_, _, shards := c.topologyStatus()
	healthy := 0
	for _, s := range shards {
		if s.Healthy {
			healthy++
		}
	}
	status := "ok"
	code := http.StatusOK
	if c.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	} else if healthy < len(shards) {
		status = "degraded"
	}
	writeJSON(w, code, map[string]any{
		"status": status, "role": "coordinator",
		"healthy_shards": healthy, "shards": len(shards),
		"uptime_ms": time.Since(c.start).Milliseconds(),
	})
}

func (c *Coordinator) handleLive(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "alive", "role": "coordinator",
		"uptime_ms": time.Since(c.start).Milliseconds(),
	})
}

// handleReady: a coordinator is ready while it can answer for at least one
// shard — partial capability beats no capability, and the partial envelope
// keeps the degradation explicit per query.
func (c *Coordinator) handleReady(w http.ResponseWriter, _ *http.Request) {
	_, _, shards := c.topologyStatus()
	healthy := 0
	for _, s := range shards {
		if s.Healthy {
			healthy++
		}
	}
	code := http.StatusOK
	status := "ready"
	if c.draining.Load() || healthy == 0 {
		code = http.StatusServiceUnavailable
		status = "unready"
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, map[string]any{
		"status": status, "healthy_shards": healthy, "shards": len(shards),
		"uptime_ms": time.Since(c.start).Milliseconds(),
	})
}
