// Package server is the HTTP/JSON query service over the engine. Its Front
// is everything both natix-serve roles, shard and cluster coordinator, do
// the same way: the mux, the POST /query prelude, canonicalization, the
// singleflight, the drain and the shared half of the health probes. A tier
// plugs in an Executor for what differs. The shard is the front with the
// local executor: a bounded worker pool executes compiled plans from the
// plan cache against documents acquired from the catalog, with per-request
// deadlines and resource limits mapped onto the engine's RunContext
// governor.
//
// Endpoints:
//
//	POST /query          evaluate an XPath expression against a named document
//	GET  /documents      list the document catalog
//	POST /reload         reload a named document (new generation; cached plans keep serving)
//	GET  /healthz        legacy probe (liveness + state summary)
//	GET  /healthz/live   liveness: 200 while the process serves at all
//	GET  /healthz/ready  readiness: 200 until the drain begins
//	GET  /buildinfo      build identity (version, store format, features)
//	GET  /metrics        Prometheus text dump of the default registry
//
// Admission control is explicit: at most Workers queries execute at once
// and at most QueueDepth more wait; beyond that /query answers a structured
// 429 immediately instead of degrading everyone. Shutdown drains in-flight
// and queued queries before returning; requests arriving during the drain
// get a structured 503.
//
// A document whose store trips several consecutive faults is quarantined:
// its queries get an immediate structured store_fault error instead of
// burning workers, until a successful /reload restores it.
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"natix"
	"natix/internal/catalog"
	"natix/internal/dom"
	"natix/internal/httpapi"
	"natix/internal/metrics"
	"natix/internal/plancache"
	"natix/internal/xval"
)

// Service metrics, on the process-wide default registry.
var (
	mRequests  = metrics.Default.Counter("natix_serve_requests_total", "Query requests accepted for execution.")
	mRejected  = metrics.Default.Counter("natix_serve_rejected_total", "Query requests rejected by admission control (429/503).")
	mErrors    = metrics.Default.Counter("natix_serve_errors_total", "Query requests that failed during execution.")
	mQueueWait = metrics.Default.Histogram("natix_serve_queue_seconds", "Time requests spent queued before a worker picked them up.")
	mServeTime = metrics.Default.Histogram("natix_serve_request_seconds", "End-to-end /query latency (queue + compile/lookup + run).")
	mInFlight  = metrics.Default.Gauge("natix_serve_inflight", "Queries currently queued or executing.")
	mState     = metrics.Default.Gauge("natix_serve_state", "Server state: 0 healthy, 2 draining.")
	mQuarDocs  = metrics.Default.Gauge("natix_serve_quarantined_documents", "Documents currently quarantined after repeated store faults.")
	mQuarHits  = metrics.Default.Counter("natix_serve_quarantine_rejects_total", "Queries answered by the quarantine fast-path (structured store_fault).")
	mCoalesced = metrics.Default.Counter("natix_singleflight_coalesced_total", "Query requests served by joining an identical in-flight execution instead of running.")
)

// State is the server's serving state.
type State int32

// The states, with the values the natix_serve_state gauge exports.
// Draining is terminal.
const (
	StateHealthy  State = 0
	StateDraining State = 2
)

// String returns the state's wire name.
func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDraining:
		return "draining"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Config configures a Server. Zero fields take the documented defaults.
type Config struct {
	// Catalog is the document collection to serve (required).
	Catalog *catalog.Catalog
	// Cache is the compiled-plan cache; nil compiles every request.
	Cache *plancache.Cache
	// Workers bounds concurrently executing queries (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds queries waiting for a worker (default 4x Workers).
	// Requests beyond Workers+QueueDepth get a structured 429.
	QueueDepth int
	// DefaultTimeout applies when a request names none (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps request-supplied timeouts (default 60s).
	MaxTimeout time.Duration
	// Limits bounds every execution (compiled into cached plans).
	Limits natix.Limits
	// MaxResultNodes truncates the serialized node list of huge results;
	// the count field still reports the full cardinality (default 10000).
	MaxResultNodes int

	// PathIndex enables cost-based path-index access-path selection in
	// served plans (natix.Options.EnablePathIndex). Reported on
	// GET /buildinfo so cluster operators can verify shard homogeneity.
	PathIndex bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxResultNodes <= 0 {
		c.MaxResultNodes = 10000
	}
	return c
}

// quarantineAfter is the number of consecutive store faults that
// quarantines a document.
const quarantineAfter = 3

// Server executes queries through a bounded worker pool. Use New, then
// mount Handler on an http.Server; call Shutdown to drain.
type Server struct {
	cfg   Config
	front *Front[*QueryRequest, *QueryResponse]
	jobs  chan *job
	wg    sync.WaitGroup // worker goroutines

	state atomic.Int32 // State

	// Document health: consecutive store-fault counts and quarantines.
	healthMu    sync.Mutex
	docFaults   map[string]int
	quarantined map[string]bool

	// executed counts engine runs started by this server (the registry
	// metrics aggregate across servers and test runs; this does not).
	executed atomic.Int64
}

// job is one admitted query: the leader's execution of its flight.
type job struct {
	Job[*QueryRequest, *QueryResponse]
	enqueued time.Time
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Catalog == nil {
		panic("server: Config.Catalog is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		jobs:        make(chan *job, cfg.QueueDepth),
		docFaults:   map[string]int{},
		quarantined: map[string]bool{},
	}
	s.front = NewFront(Executor[*QueryRequest, *QueryResponse]{
		Role:           "shard",
		Features:       BuildFeatures{Batch: true, PathIndex: cfg.PathIndex},
		DefaultTimeout: cfg.DefaultTimeout,
		MaxTimeout:     cfg.MaxTimeout,
		Rejected:       mRejected,
		Coalesced:      mCoalesced,
		NewRequest:     func() *QueryRequest { return new(QueryRequest) },
		Scope: func(req *QueryRequest) Scope {
			gen, _ := cfg.Catalog.Generation(req.Document)
			return Scope{Target: req.Document, Generation: gen}
		},
		Start: s.admit,
		Joined: func(resp *QueryResponse) *QueryResponse {
			cp := *resp
			cp.Coalesced = true
			return &cp
		},
		Documents: func() any { return cfg.Catalog.List() },
		Reload:    s.reload,
		Health:    s.health,
		Drain:     func() { s.setState(StateDraining) },
		// Nothing sends on jobs once the front has drained every job.
		Stop: func() {
			close(s.jobs)
			s.wg.Wait()
		},
	})
	mState.Set(int64(StateHealthy))
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler { return s.front.Mux() }

// Shutdown drains the service: new queries get 503, queued and in-flight
// queries finish (bounded by their own deadlines), workers exit. The
// context bounds the wait; its expiry abandons the drain and returns the
// context's error.
func (s *Server) Shutdown(ctx context.Context) error { return s.front.Shutdown(ctx) }

// State returns the server's current serving state.
func (s *Server) State() State { return State(s.state.Load()) }

// setState publishes a state transition.
func (s *Server) setState(st State) {
	s.state.Store(int32(st))
	mState.Set(int64(st))
}

// noteStoreFault records one store fault against doc, quarantining the
// document after quarantineAfter consecutive faults.
func (s *Server) noteStoreFault(doc string) {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	s.docFaults[doc]++
	if s.docFaults[doc] >= quarantineAfter && !s.quarantined[doc] {
		s.quarantined[doc] = true
		mQuarDocs.Add(1)
	}
}

// noteStoreOK resets doc's consecutive-fault count (quarantine lifts only
// through a successful reload).
func (s *Server) noteStoreOK(doc string) {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	if s.docFaults[doc] != 0 && !s.quarantined[doc] {
		s.docFaults[doc] = 0
	}
}

// isQuarantined reports whether doc is quarantined.
func (s *Server) isQuarantined(doc string) bool {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	return s.quarantined[doc]
}

// liftQuarantine clears doc's quarantine and fault count (successful
// reload).
func (s *Server) liftQuarantine(doc string) {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	if s.quarantined[doc] {
		delete(s.quarantined, doc)
		mQuarDocs.Add(-1)
	}
	delete(s.docFaults, doc)
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.jobs {
		s.execute(j)
	}
}

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	// Query is the XPath 1.0 expression (required).
	Query string `json:"query"`
	// Document names the catalog document to evaluate against (required).
	Document string `json:"document"`
	// Mode is "improved" (default) or "canonical".
	Mode string `json:"mode,omitempty"`
	// Namespaces maps prefixes used in the expression to URIs.
	Namespaces map[string]string `json:"namespaces,omitempty"`
	// TimeoutMS overrides the service default deadline, capped by the
	// service maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Target implements httpapi.Request.
func (q *QueryRequest) Target() (query, document string) { return q.Query, q.Document }

// QueryNode is one serialized result node.
type QueryNode struct {
	Kind  string `json:"kind"`
	Name  string `json:"name,omitempty"`
	Value string `json:"value"`
}

// QueryResult is the typed result payload: exactly one of Nodes / Boolean /
// Number / String is meaningful, per Kind.
type QueryResult struct {
	Kind    string      `json:"kind"`
	Count   int         `json:"count,omitempty"`
	Nodes   []QueryNode `json:"nodes,omitempty"`
	Boolean *bool       `json:"boolean,omitempty"`
	Number  *float64    `json:"number,omitempty"`
	String  *string     `json:"string,omitempty"`
	// Truncated is set when Nodes was cut at the service's MaxResultNodes;
	// Count still reports the full cardinality.
	Truncated bool `json:"truncated,omitempty"`
}

// QueryStats echoes the engine counters of the run.
type QueryStats struct {
	AxisSteps  int64 `json:"axis_steps"`
	Tuples     int64 `json:"tuples"`
	DupDropped int64 `json:"dup_dropped"`
	MemoHits   int64 `json:"memo_hits"`
	MemoMisses int64 `json:"memo_misses"`
}

// QueryResponse is the body of a successful POST /query.
type QueryResponse struct {
	Document   string `json:"document"`
	Generation uint64 `json:"generation"`
	// Cached reports whether the plan came from the plan cache (no
	// parse/translate/codegen on this request).
	Cached bool `json:"cached"`
	// Coalesced reports this response was delivered by joining another
	// request's in-flight execution (singleflight).
	Coalesced bool        `json:"coalesced,omitempty"`
	ElapsedUS int64       `json:"elapsed_us"`
	Result    QueryResult `json:"result"`
	Stats     QueryStats  `json:"stats"`
}

// catalogErr maps a catalog failure on a named document onto the envelope:
// a name not registered is a 404, a registered document whose store would
// not open or load a store fault.
func catalogErr(err error) *httpapi.Error {
	if errors.Is(err, catalog.ErrUnknown) {
		return httpapi.Errf(http.StatusNotFound, httpapi.CodeUnknownDoc, "%v", err)
	}
	return httpapi.Errf(http.StatusInternalServerError, httpapi.CodeStoreFault, "%v", err)
}

// classify maps an execution error onto the structured envelope,
// distinguishing limit trips, timeouts, parse errors and store faults.
func classify(err error) *httpapi.Error {
	var le *natix.LimitError
	if errors.As(err, &le) {
		return httpapi.Errf(http.StatusUnprocessableEntity, httpapi.CodeLimit, "%v", le)
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return httpapi.Errf(http.StatusGatewayTimeout, httpapi.CodeTimeout, "query evaluation timed out")
	}
	var ie *natix.InternalError
	if errors.As(err, &ie) {
		return httpapi.Errf(http.StatusInternalServerError, httpapi.CodeInternal, "engine error: %v", ie.Value)
	}
	return httpapi.Errf(http.StatusInternalServerError, httpapi.CodeStoreFault, "%v", err)
}

// health answers the front's probes: ready until the drain begins, so load
// balancers steer new traffic away from a draining server.
func (s *Server) health(p Probe, _ bool) (bool, string, map[string]any) {
	st := s.State()
	switch p {
	case ProbeHealthz:
		return true, "ok", map[string]any{"state": st.String(), "documents": len(s.cfg.Catalog.List())}
	case ProbeReady:
		return st != StateDraining, st.String(), nil
	}
	return true, "alive", nil
}

// reload opens a new generation of the named document.
func (s *Server) reload(_ context.Context, name string) (any, *httpapi.Error) {
	gen, err := s.cfg.Catalog.Reload(name)
	if err != nil {
		// A failed reload leaves the previous generation serving; the
		// caller learns the attempt failed, queries keep working.
		return nil, catalogErr(err)
	}
	// A fresh generation starts with a clean bill of health. Cached plans
	// hold nothing per document, so they serve it as they are.
	s.liftQuarantine(name)
	return map[string]any{"document": name, "generation": gen}, nil
}

// admit queues a leader's job, or returns the admission verdict against it.
func (s *Server) admit(j Job[*QueryRequest, *QueryResponse]) *httpapi.Error {
	// Quarantine fast-path: a document whose store keeps tripping sticky
	// faults answers a structured store_fault immediately instead of
	// burning a worker on an I/O path known to fail.
	if doc := j.Req.Document; s.isQuarantined(doc) {
		mQuarHits.Inc()
		return httpapi.Errf(http.StatusServiceUnavailable, httpapi.CodeStoreFault,
			"document %q quarantined after repeated store faults; POST /reload?document=%s to restore", doc, doc)
	}
	// Admission: the jobs channel is the queue; a full channel answers an
	// immediate structured 429 rather than stalling the client.
	select {
	case s.jobs <- &job{Job: j, enqueued: time.Now()}:
		mInFlight.Add(1)
		return nil
	default:
		mRejected.Inc()
		return httpapi.Errf(http.StatusTooManyRequests, httpapi.CodeOverloaded,
			"admission queue full (%d executing, %d queued)", s.cfg.Workers, s.cfg.QueueDepth)
	}
}

// compileOpts builds the compile options for one request.
func (s *Server) compileOpts(req *QueryRequest) natix.Options {
	mode, _ := parseMode(req.Mode) // the front answered an unknown mode
	return natix.Options{
		Mode:            mode,
		Namespaces:      req.Namespaces,
		Limits:          s.cfg.Limits,
		EnablePathIndex: s.cfg.PathIndex,
	}
}

// execute runs one admitted job on a worker goroutine and publishes its
// outcome to every waiter of the job's flight, the leader included.
func (s *Server) execute(j *job) {
	resp, err := s.run(j)
	if err != nil {
		mErrors.Inc()
	}
	mInFlight.Add(-1)
	j.Finish(resp, err)
}

// run evaluates one job on its flight's execution context.
func (s *Server) run(j *job) (*QueryResponse, *httpapi.Error) {
	ctx := j.Context()
	if metrics.Enabled() {
		mRequests.Inc()
		mQueueWait.ObserveDuration(time.Since(j.enqueued))
		defer func() { mServeTime.ObserveDuration(time.Since(j.enqueued)) }()
	}
	// Every waiter may have left while the job queued.
	if ctx.Err() != nil {
		return nil, httpapi.Errf(http.StatusGatewayTimeout, httpapi.CodeTimeout, "request expired while queued")
	}

	h, err := s.cfg.Catalog.Acquire(j.Req.Document)
	if err != nil {
		e := catalogErr(err)
		if e.Code == httpapi.CodeStoreFault {
			// The document exists but its store would not open: counted
			// toward quarantine.
			s.noteStoreFault(j.Req.Document)
		}
		return nil, e
	}
	defer h.Release()

	opt := s.compileOpts(j.Req)
	var plan *natix.Prepared
	cached := false
	if s.cfg.Cache != nil {
		plan, cached, err = s.cfg.Cache.GetOrCompileNormalized(j.Canon, j.Normalized, opt)
	} else {
		plan, err = natix.CompileWith(j.Canon, opt)
	}
	if err != nil {
		return nil, httpapi.Errf(http.StatusBadRequest, httpapi.CodeParseError, "%v", err)
	}

	s.executed.Add(1)
	res, err := plan.RunContext(ctx, natix.RootNode(h.Doc), nil)
	if err != nil {
		e := classify(err)
		if e.Code == httpapi.CodeStoreFault {
			s.noteStoreFault(j.Req.Document)
		}
		return nil, e
	}
	s.noteStoreOK(j.Req.Document)
	return &QueryResponse{
		Document:   h.Name,
		Generation: h.Generation,
		Cached:     cached,
		ElapsedUS:  time.Since(j.enqueued).Microseconds(),
		Result:     s.serialize(res),
		Stats: QueryStats{
			AxisSteps:  res.Stats.AxisSteps,
			Tuples:     res.Stats.Tuples,
			DupDropped: res.Stats.DupDropped,
			MemoHits:   res.Stats.MemoHits,
			MemoMisses: res.Stats.MemoMisses,
		},
	}, nil
}

// ServeCounters is a snapshot of server-local execution accounting. The
// registry metrics aggregate across servers and test runs; these do not,
// which is what the adaptive guard needs to prove "duplicates executed
// once".
type ServeCounters struct {
	// Executed counts engine runs actually started.
	Executed int64
	// Coalesced counts requests served by joining an in-flight execution.
	Coalesced int64
}

// Counters returns the server-local execution counters.
func (s *Server) Counters() ServeCounters {
	return ServeCounters{Executed: s.executed.Load(), Coalesced: s.front.Coalesced()}
}

// serialize converts a result value into the JSON payload. Node-sets are
// returned in document order.
func (s *Server) serialize(res *natix.Result) QueryResult {
	v := res.Value
	switch v.Kind {
	case xval.KindBoolean:
		b := v.B
		return QueryResult{Kind: "boolean", Boolean: &b}
	case xval.KindNumber:
		n := v.N
		if math.IsNaN(n) || math.IsInf(n, 0) {
			// JSON has no NaN or Infinity: encoding them would fail after
			// the 200 header is out, leaving an empty body. Ship the XPath
			// string() form in String instead; Number stays absent.
			str := xval.FormatNumber(n)
			return QueryResult{Kind: "number", String: &str}
		}
		return QueryResult{Kind: "number", Number: &n}
	case xval.KindString:
		str := v.S
		return QueryResult{Kind: "string", String: &str}
	}
	nodes, _ := res.SortedNodeSet()
	out := QueryResult{Kind: "node-set", Count: len(nodes)}
	truncAt := s.cfg.MaxResultNodes
	if len(nodes) > 0 {
		out.Nodes = make([]QueryNode, 0, min(len(nodes), truncAt))
	}
	for i, n := range nodes {
		if i == truncAt {
			out.Truncated = true
			break
		}
		// Each value is read once: the string-value of a document or an
		// element, the node's own content otherwise.
		var qn QueryNode
		switch n.Kind() {
		case dom.KindDocument:
			qn.Kind = "document"
			qn.Value = n.StringValue()
		case dom.KindElement:
			qn.Kind = "element"
			qn.Name = n.Name()
			qn.Value = n.StringValue()
		case dom.KindAttribute:
			qn.Kind = "attribute"
			qn.Name = n.Name()
			qn.Value = n.Value()
		case dom.KindText:
			qn.Kind = "text"
			qn.Value = n.Value()
		case dom.KindComment:
			qn.Kind = "comment"
			qn.Value = n.Value()
		case dom.KindProcInstr:
			qn.Kind = "processing-instruction"
			qn.Name = n.Name()
			qn.Value = n.Value()
		case dom.KindNamespace:
			qn.Kind = "namespace"
			qn.Name = n.Name()
			qn.Value = n.Value()
		default:
			qn.Kind = "node"
			qn.Value = n.StringValue()
		}
		out.Nodes = append(out.Nodes, qn)
	}
	return out
}
