package cluster

import (
	"context"
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
	"natix/internal/httpapi"
	"natix/internal/metrics"
	"natix/internal/server"
)

// Coordinator metrics, on the process-wide default registry.
var (
	mCoordRequests  = metrics.Default.Counter("natix_coord_requests_total", "Queries accepted by the coordinator.")
	mCoordRejected  = metrics.Default.Counter("natix_coord_rejected_total", "Queries rejected by coordinator admission control.")
	mCoordErrors    = metrics.Default.Counter("natix_coord_errors_total", "Coordinated queries that failed.")
	mCoordScatter   = metrics.Default.Counter("natix_coord_scatter_total", "Queries scatter-gathered across shards (vs routed to one).")
	mCoordPartial   = metrics.Default.Counter("natix_coord_partial_total", "Scatter-gathered queries answered with a partial envelope.")
	mCoordTime      = metrics.Default.Histogram("natix_coord_request_seconds", "End-to-end coordinator /query latency.")
	mCoordFanout    = metrics.Default.Histogram("natix_coord_fanout_documents", "Documents fanned out per scatter-gathered query.")
	mShardReqs      = metrics.Default.CounterVec("natix_coord_shard_requests_total", "Coordinator->shard query calls, by shard.", "shard")
	mShardErrs      = metrics.Default.CounterVec("natix_coord_shard_errors_total", "Failed coordinator->shard query calls, by shard.", "shard")
	mShardMicros    = metrics.Default.CounterVec("natix_coord_shard_micros_total", "Cumulative coordinator->shard call latency in microseconds, by shard (divide by the request counter for the mean).", "shard")
	mShardsHealthy  = metrics.Default.Gauge("natix_coord_healthy_shards", "Shards currently considered healthy by the prober.")
	mTopoReloads    = metrics.Default.Counter("natix_coord_topology_reloads_total", "Topology reloads installed.")
	mProbes         = metrics.Default.Counter("natix_coord_probes_total", "Health-probe rounds completed.")
	mCoordCoalesced = metrics.Default.Counter("natix_coord_coalesced_total", "Coordinator queries served by joining an identical in-flight fan-out instead of calling shards.")
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
	// query or /reload (default 4x shard count, at least 4).
	FanOut int
	// DefaultTimeout applies when a request names none (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps request-supplied timeouts (default 60s).
	MaxTimeout time.Duration

	// ProbeInterval is the health-probe period (default 500ms).
	ProbeInterval time.Duration

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
	return c
}

// The fixed probe and shard-client settings.
const (
	// probeTimeout bounds one probe round.
	probeTimeout = 2 * time.Second
	// unhealthyAfter flips a shard unhealthy after this many consecutive
	// failed probe rounds; healthyAfter flips it back after this many
	// consecutive successes. The hysteresis keeps a flapping shard from
	// oscillating in and out of the routing table on every probe.
	unhealthyAfter = 2
	healthyAfter   = 2
	// maxRetries bounds the per-call retry attempts of the shard clients:
	// the coordinator sits on the request path, so its retry budget is
	// smaller than the standalone client's 4.
	maxRetries = 2
	// clientSeed seeds the shard clients' backoff jitter.
	clientSeed = 1
)

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
	docs       map[string]uint64 // document → generation, as last probed
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

// documents resolves a document expression — "*", a comma list, or one
// name — into names in global document order: sorted, deduplicated. For
// "*" owner pre-resolves each name's shard; otherwise it is nil.
func (st *clusterState) documents(expr string) ([]string, map[string]*shardState, *httpapi.Error) {
	if expr == "*" {
		docs, owner := st.docUnion()
		if len(docs) == 0 {
			return nil, nil, httpapi.Errf(http.StatusNotFound, httpapi.CodeUnknownDoc,
				"no documents discovered yet: the prober has not seen any shard catalog")
		}
		return docs, owner, nil
	}
	seen := map[string]bool{}
	var docs []string
	for _, d := range strings.Split(expr, ",") {
		d = strings.TrimSpace(d)
		if d == "" {
			return nil, nil, httpapi.Errf(http.StatusBadRequest, httpapi.CodeBadRequest,
				"empty document name in list %q", expr)
		}
		if !seen[d] {
			seen[d] = true
			docs = append(docs, d)
		}
	}
	sort.Strings(docs) // global document order is sorted-by-name
	return docs, nil, nil
}

// Coordinator scatter-gathers /query across a topology of natix-serve
// shards: the serving front with the remote executor, plus /topology, the
// prober and the topology install. Use New, mount Handler, call Shutdown
// then Close.
type Coordinator struct {
	cfg   Config
	front *server.Front[*QueryRequest, *QueryResponse]
	state atomic.Pointer[clusterState]
	httpc *http.Client

	// slots bounds concurrently coordinated queries (MaxInflight). The
	// front's singleflight comes first: without it, N clients submitting
	// one hot query would fan out N identical shard calls, each of which
	// the shard would then coalesce anyway.
	slots chan struct{}

	reloadMu sync.Mutex // serializes topology installs
	stop     chan struct{}
	done     chan struct{}
}

// Coalesced reports how many queries this coordinator answered by joining
// an in-flight identical fan-out.
func (c *Coordinator) Coalesced() int64 { return c.front.Coalesced() }

// New builds a Coordinator over cfg.Topology and starts its health-probe
// loop. Shards start optimistically healthy: a cold coordinator routes
// immediately and the prober demotes what does not answer.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("cluster: Config.Topology is required")
	}
	cfg = cfg.withDefaults()
	var rt http.RoundTripper = client.Pool{}.Transport()
	if cfg.WrapTransport != nil {
		rt = cfg.WrapTransport(rt)
	}
	c := &Coordinator{
		cfg:   cfg,
		httpc: &http.Client{Transport: rt},
		slots: make(chan struct{}, cfg.MaxInflight),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	c.front = server.NewFront(server.Executor[*QueryRequest, *QueryResponse]{
		Role:           "coordinator",
		Features:       server.BuildFeatures{Batch: true},
		DefaultTimeout: cfg.DefaultTimeout,
		MaxTimeout:     cfg.MaxTimeout,
		Rejected:       mCoordRejected,
		Coalesced:      mCoordCoalesced,
		NewRequest:     func() *QueryRequest { return new(QueryRequest) },
		Scope: func(req *QueryRequest) server.Scope {
			return server.Scope{Target: req.Document, Generation: c.state.Load().topo.Generation(), Partial: req.AllowPartial}
		},
		Start: c.start,
		Joined: func(resp *QueryResponse) *QueryResponse {
			cp := *resp
			cp.Coalesced = true
			return &cp
		},
		Documents: c.listDocuments,
		Reload:    c.reload,
		Health:    c.health,
	})
	c.install(cfg.Topology)
	go c.probeLoop()
	return c, nil
}

// newShardState builds the per-shard clients (shared transport).
func (c *Coordinator) newShardState(sh ShardSpec, seq int) *shardState {
	st := &shardState{id: sh.ID, endpoints: sh.Endpoints, docs: map[string]uint64{}}
	for i, ep := range sh.Endpoints {
		cl := client.New(ep, clientSeed+int64(seq*16+i))
		cl.HTTPClient = c.httpc
		cl.MaxRetries = maxRetries
		st.clients = append(st.clients, cl)
		pr := client.New(ep, clientSeed+int64(seq*16+i)+7)
		pr.HTTPClient = c.httpc
		pr.MaxRetries = -1 // probes never retry: a failed round IS the signal
		st.probes = append(st.probes, pr)
	}
	st.healthy.Store(true)
	st.consecOK = healthyAfter
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
func (c *Coordinator) Shutdown(ctx context.Context) error { return c.front.Shutdown(ctx) }

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
// when every per-document result is a node-set, the merged Result, which
// then holds each node once: those PerDocument entries carry their count
// and truncation but no nodes. A caller that needs one document's own
// nodes queries that document alone.
type QueryResponse struct {
	Document   string `json:"document,omitempty"`
	Generation uint64 `json:"generation,omitempty"`
	Cached     bool   `json:"cached,omitempty"`

	// Partial marks an answer missing documents (AllowPartial was set and
	// some failed); Failed lists exactly which, in global document order.
	Partial bool         `json:"partial,omitempty"`
	Failed  []DocFailure `json:"failed,omitempty"`
	// PerDocument carries each document's own result, in global document
	// order (sorted by name); a node-set entry's nodes are in Result when
	// Result is set.
	PerDocument []DocResult `json:"per_document,omitempty"`

	Result    *server.QueryResult `json:"result,omitempty"`
	Stats     server.QueryStats   `json:"stats"`
	ElapsedUS int64               `json:"elapsed_us"`
	Shards    []ShardTiming       `json:"shards,omitempty"`

	// Coalesced marks an answer served by joining an identical in-flight
	// coordinator fan-out rather than calling any shard.
	Coalesced bool `json:"coalesced,omitempty"`
}

// Handler returns the coordinator's HTTP mux: the front's endpoints and
// /topology.
func (c *Coordinator) Handler() http.Handler {
	mux := c.front.Mux()
	mux.HandleFunc("/topology", c.handleTopology)
	return mux
}

// start applies the inflight bound and dispatches a leader's query on its
// own goroutine. A full coordinator answers a structured 429 immediately:
// the same contract as a shard's admission queue, one layer up.
func (c *Coordinator) start(j server.Job[*QueryRequest, *QueryResponse]) *httpapi.Error {
	select {
	case c.slots <- struct{}{}:
	default:
		mCoordRejected.Inc()
		return httpapi.Errf(http.StatusTooManyRequests, httpapi.CodeOverloaded,
			"coordinator at max inflight (%d)", c.cfg.MaxInflight)
	}
	go func() {
		resp, e := c.route(j.Context(), j.Req)
		if e != nil {
			mCoordErrors.Inc()
		}
		<-c.slots // before Finish: a client holding its answer finds the slot free
		j.Finish(resp, e)
	}()
	return nil
}

// route dispatches one admitted query: single-document to the owning
// shard, lists and wildcards through the scatter-gather path.
func (c *Coordinator) route(ctx context.Context, req *QueryRequest) (*QueryResponse, *httpapi.Error) {
	mCoordRequests.Inc()
	started := time.Now()
	if metrics.Enabled() {
		defer func() { mCoordTime.ObserveDuration(time.Since(started)) }()
	}
	st := c.state.Load()
	if req.Document != "*" && !strings.Contains(req.Document, ",") {
		return c.single(ctx, st, req, started)
	}
	docs, owner, e := st.documents(req.Document)
	if e != nil {
		return nil, e
	}
	return c.scatter(ctx, st, req, docs, owner, started)
}

// single routes a one-document query to its owning shard and passes the
// shard's answer through, with the coordinator's timing breakdown added.
func (c *Coordinator) single(ctx context.Context, st *clusterState, req *QueryRequest, started time.Time) (*QueryResponse, *httpapi.Error) {
	sh := st.resolve(req.Document)
	if !sh.healthy.Load() {
		return nil, envelopeFrom(errShardDown, req.Document, sh.id)
	}
	inner := req.QueryRequest
	t0 := time.Now()
	resp, err := sh.client().Query(ctx, &inner)
	elapsed := time.Since(t0)
	noteShardCall(sh, elapsed, err)
	if err != nil {
		return nil, envelopeFrom(err, req.Document, sh.id)
	}
	return &QueryResponse{
		Document:   resp.Document,
		Generation: resp.Generation,
		Cached:     resp.Cached,
		Result:     &resp.Result,
		Stats:      resp.Stats,
		ElapsedUS:  time.Since(started).Microseconds(),
		Shards: []ShardTiming{{
			Shard: sh.id, Endpoint: sh.endpoint(), Calls: 1,
			ElapsedUS: elapsed.Microseconds(), MaxUS: elapsed.Microseconds(),
		}},
	}, nil
}

// fanOut calls call(i, sh, nil) for each document on the shard serving it
// (owner's pre-resolution first, when given), each on its own goroutine and
// at most FanOut at once, and returns when every call has. A document on an
// unhealthy shard, or still waiting for a turn when ctx ends, gets no shard
// call: call sees why as err instead.
func (c *Coordinator) fanOut(ctx context.Context, st *clusterState, docs []string, owner map[string]*shardState, call func(i int, sh *shardState, err error)) {
	sem := make(chan struct{}, c.cfg.FanOut)
	var wg sync.WaitGroup
	for i, doc := range docs {
		sh := owner[doc]
		if sh == nil {
			sh = st.resolve(doc)
		}
		if !sh.healthy.Load() {
			call(i, sh, errShardDown)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
				call(i, sh, nil)
			case <-ctx.Done():
				call(i, sh, ctx.Err())
			}
		}()
	}
	wg.Wait()
}

// scatter fans req out over docs (already in global document order), one
// shard call per document, and merges the results in that order.
func (c *Coordinator) scatter(ctx context.Context, st *clusterState, req *QueryRequest, docs []string, owner map[string]*shardState, started time.Time) (*QueryResponse, *httpapi.Error) {
	mCoordScatter.Inc()
	if metrics.Enabled() {
		mCoordFanout.Observe(float64(len(docs)))
	}
	outcomes := make([]docOutcome, len(docs))
	c.fanOut(ctx, st, docs, owner, func(i int, sh *shardState, err error) {
		out := &outcomes[i]
		out.doc, out.shard, out.err = docs[i], sh, err
		if err != nil {
			return
		}
		inner := req.QueryRequest
		inner.Document = out.doc
		t0 := time.Now()
		out.resp, out.err = sh.client().Query(ctx, &inner)
		out.elapsed = time.Since(t0)
		noteShardCall(sh, out.elapsed, out.err)
	})

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
// answer: the owning shard's reload report.
type ReloadDocStatus struct {
	Document   string `json:"document"`
	Shard      string `json:"shard"`
	Generation uint64 `json:"generation,omitempty"`
	Error      string `json:"error,omitempty"`
}

// ReloadShardStatus aggregates one shard's slice of a reload fan-out.
type ReloadShardStatus struct {
	Shard     string `json:"shard"`
	Documents int    `json:"documents"`
	Errors    int    `json:"errors,omitempty"`
}

// reload fans POST /reload?document= out to the shards serving the named
// documents — a single name, a comma list, or "*" for every observed
// document — and aggregates the reports per shard.
// Failures are per-document and explicit, never silently dropped: the
// answer is the cluster-level analogue of a shard's own reload response.
func (c *Coordinator) reload(ctx context.Context, name string) (any, *httpapi.Error) {
	st := c.state.Load()
	docs, owner, e := st.documents(name)
	if e != nil {
		return nil, e
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.MaxTimeout)
	defer cancel()

	out := make([]ReloadDocStatus, len(docs))
	c.fanOut(ctx, st, docs, owner, func(i int, sh *shardState, err error) {
		o := &out[i]
		o.Document, o.Shard = docs[i], sh.id
		switch {
		case err == errShardDown:
			o.Error = "shard " + sh.id + " is down"
		case err != nil:
			o.Error = err.Error()
		default:
			res, err := sh.client().Reload(ctx, o.Document)
			if err != nil {
				o.Error = err.Error()
				return
			}
			o.Generation = res.Generation
		}
	})

	agg := map[string]*ReloadShardStatus{}
	failures := 0
	for i := range out {
		o := &out[i]
		t, ok := agg[o.Shard]
		if !ok {
			t = &ReloadShardStatus{Shard: o.Shard}
			agg[o.Shard] = t
		}
		t.Documents++
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
	return map[string]any{
		"documents": out,
		"shards":    shards,
		"errors":    failures,
	}, nil
}

// listDocuments is the GET /documents list: every observed document with
// the shard serving it.
func (c *Coordinator) listDocuments() any {
	st := c.state.Load()
	type docEntry struct {
		Name       string `json:"name"`
		Shard      string `json:"shard"`
		Generation uint64 `json:"generation"`
	}
	names, owner := st.docUnion()
	out := make([]docEntry, 0, len(names))
	for _, n := range names {
		sh := owner[n]
		sh.mu.Lock()
		gen := sh.docs[n]
		sh.mu.Unlock()
		out = append(out, docEntry{Name: n, Shard: sh.id, Generation: gen})
	}
	return out
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
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{
			"generation": gen, "vnodes": vnodes, "shards": shards,
		})
	case http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			httpapi.WriteError(w, httpapi.Errf(http.StatusBadRequest, httpapi.CodeBadRequest, "read body: %v", err))
			return
		}
		var topo *Topology
		if len(body) == 0 {
			// Empty body: re-read the topology file (the operator edited it
			// in place, atomically).
			if c.cfg.TopologyPath == "" {
				httpapi.WriteError(w, httpapi.Errf(http.StatusBadRequest, httpapi.CodeBadRequest,
					"no topology file configured; POST the new topology as the body"))
				return
			}
			topo, err = LoadTopologyFile(c.cfg.TopologyPath)
			if err != nil {
				httpapi.WriteError(w, httpapi.Errf(http.StatusBadRequest, httpapi.CodeBadRequest, "%v", err))
				return
			}
		} else {
			topo, err = ParseTopology(body)
			if err != nil {
				httpapi.WriteError(w, httpapi.Errf(http.StatusBadRequest, httpapi.CodeBadRequest, "%v", err))
				return
			}
			if c.cfg.TopologyPath != "" {
				// Persist before installing, under the atomic-rename
				// contract: a crash between the write and the install
				// leaves a coordinator that re-reads the new file at
				// startup — never a torn topology.
				if err := topo.Save(c.cfg.TopologyPath); err != nil {
					httpapi.WriteError(w, httpapi.Errf(http.StatusInternalServerError, httpapi.CodeStoreFault, "persist topology: %v", err))
					return
				}
			}
		}
		carried := c.install(topo)
		mTopoReloads.Inc()
		// Probe the new topology promptly so fresh shards demote fast if
		// dead. The caller's answer does not wait for it.
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
			defer cancel()
			c.ProbeNow(ctx)
		}()
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{
			"generation": topo.Generation(), "shards": len(topo.ShardIDs()), "carried_over": carried,
		})
	default:
		httpapi.WriteError(w, httpapi.Errf(http.StatusMethodNotAllowed, httpapi.CodeBadRequest, "GET or POST only"))
	}
}

// health answers the front's probes. A coordinator is ready while it can
// answer for at least one shard: partial capability beats no capability,
// and the partial envelope keeps the degradation explicit per query.
func (c *Coordinator) health(p server.Probe, draining bool) (bool, string, map[string]any) {
	st := c.state.Load()
	healthy, shards := st.healthy(), len(st.order)
	switch p {
	case server.ProbeHealthz:
		status := "ok"
		if healthy < shards {
			status = "degraded"
		}
		return true, status, map[string]any{"role": "coordinator", "healthy_shards": healthy, "shards": shards}
	case server.ProbeReady:
		fields := map[string]any{"healthy_shards": healthy, "shards": shards}
		if draining || healthy == 0 {
			return false, "unready", fields
		}
		return true, "ready", fields
	}
	return true, "alive", map[string]any{"role": "coordinator"}
}
