// Package server is the HTTP/JSON query service over the engine: a bounded
// worker pool executes compiled plans from the plan cache against documents
// acquired from the catalog, with per-request deadlines and resource limits
// mapped onto the engine's RunContext governor.
//
// Endpoints:
//
//	POST /query          evaluate an XPath expression against a named document
//	GET  /documents      list the document catalog
//	POST /reload         reload a named document (new generation; cached plans keep serving)
//	GET  /healthz        legacy probe (liveness + state summary)
//	GET  /healthz/live   liveness: 200 while the process serves at all
//	GET  /healthz/ready  readiness: 200 only in the healthy state
//	GET  /buildinfo      build identity (version, store format, features)
//	GET  /metrics        Prometheus text dump of the default registry
//
// Admission control is explicit: at most Workers queries execute at once
// and at most QueueDepth more wait; beyond that /query answers a structured
// 429 immediately instead of degrading everyone. Shutdown drains in-flight
// and queued queries before returning; requests arriving during the drain
// get a structured 503.
//
// # Degraded mode
//
// The server runs a healthy → degraded → draining state machine. Sustained
// overload (queue-full rejections) or repeated store faults within one
// evaluation window flip it to degraded; a full quiet window flips it back.
// While degraded the server sheds load by cost class — queries whose cached
// plan's CostBytes marks them expensive are 429'd first — and shrinks the
// admission queue so latency stays bounded for the work it still accepts.
// A document whose store trips several consecutive faults is quarantined:
// its queries get an immediate structured store_fault error instead of
// burning workers, until a successful /reload restores it. Draining (set by
// Shutdown) is terminal.
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
	"natix/internal/canon"
	"natix/internal/catalog"
	"natix/internal/dom"
	"natix/internal/flight"
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
	mState     = metrics.Default.Gauge("natix_serve_state", "Server state: 0 healthy, 1 degraded, 2 draining.")
	mShed      = metrics.Default.CounterVec("natix_serve_shed_total", "Queries shed while degraded, by cost class.", "class")
	mQuarDocs  = metrics.Default.Gauge("natix_serve_quarantined_documents", "Documents currently quarantined after repeated store faults.")
	mQuarHits  = metrics.Default.Counter("natix_serve_quarantine_rejects_total", "Queries answered by the quarantine fast-path (structured store_fault).")
	mCoalesced = metrics.Default.Counter("natix_singleflight_coalesced_total", "Query requests served by joining an identical in-flight execution instead of running.")
)

// State is the server's serving state.
type State int32

// The states, in escalation order. Draining is terminal.
const (
	StateHealthy State = iota
	StateDegraded
	StateDraining
)

// String returns the state's wire name.
func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateDraining:
		return "draining"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Cost classes of the shed accounting.
const (
	costHigh = "high"
	costLow  = "low"
)

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

	// EvalWindow is the degradation evaluation period: overload/fault
	// counters are judged and reset every window, and a degraded server
	// returns to healthy after one quiet window (default 1s).
	EvalWindow time.Duration
	// DegradeRejects flips the server to degraded when at least this many
	// queue-full rejections land within one window (default 2x QueueDepth).
	DegradeRejects int64
	// DegradeFaults flips the server to degraded when at least this many
	// store faults land within one window (default 4).
	DegradeFaults int64
	// HighCostBytes is the plan CostBytes at or above which a query is in
	// the high cost class, shed first while degraded (default 16 KiB).
	// Queries whose plan is not cached are classed by expression length
	// (>= 192 bytes is high).
	HighCostBytes int64
	// DegradedQueueDepth is the shrunk admission queue while degraded
	// (default QueueDepth/4, at least 1).
	DegradedQueueDepth int
	// QuarantineAfter quarantines a document after this many consecutive
	// store faults (default 3). Zero takes the default; negative disables
	// quarantining.
	QuarantineAfter int

	// PathIndex enables cost-based path-index access-path selection in
	// served plans (natix.Options.EnablePathIndex). Reported on
	// GET /buildinfo so cluster operators can verify shard homogeneity.
	PathIndex bool

	// HighCostSeconds is the profiled EWMA run time at or above which a
	// query is high-cost on history alone (default 250ms). Admission blends
	// it with the static CostBytes threshold when both signals exist.
	HighCostSeconds time.Duration
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
	if c.EvalWindow <= 0 {
		c.EvalWindow = time.Second
	}
	if c.DegradeRejects <= 0 {
		c.DegradeRejects = 2 * int64(c.QueueDepth)
	}
	if c.DegradeFaults <= 0 {
		c.DegradeFaults = 4
	}
	if c.HighCostBytes <= 0 {
		c.HighCostBytes = 16 << 10
	}
	if c.DegradedQueueDepth <= 0 {
		c.DegradedQueueDepth = max(1, c.QueueDepth/4)
	}
	if c.QuarantineAfter == 0 {
		c.QuarantineAfter = 3
	}
	if c.HighCostSeconds <= 0 {
		c.HighCostSeconds = 250 * time.Millisecond
	}
	return c
}

// Server executes queries through a bounded worker pool. Use New, then
// mount Handler on an http.Server; call Shutdown to drain.
type Server struct {
	cfg   Config
	jobs  chan *job
	quit  chan struct{}
	wg    sync.WaitGroup // worker goroutines
	jobWG sync.WaitGroup // accepted, not-yet-finished jobs

	draining atomic.Bool
	start    time.Time

	// Degradation state machine.
	state    atomic.Int32 // State
	queued   atomic.Int64 // jobs enqueued, not yet picked up by a worker
	winRej   atomic.Int64 // queue-full rejections this evaluation window
	winFault atomic.Int64 // store faults this evaluation window
	stopEval chan struct{}
	evalDone chan struct{}

	// Document health: consecutive store-fault counts and quarantines.
	healthMu    sync.Mutex
	docFaults   map[string]int
	quarantined map[string]bool

	// Adaptive serving: the singleflight registry, the canonicalization
	// memo, and the workload profile (profile.go).
	flights flight.Group[flightKey, *QueryResponse]
	canon   canon.Memo
	profile *profile

	// Server-local execution accounting (the registry metrics aggregate
	// across servers and test runs; these do not).
	executed  atomic.Int64
	coalesced atomic.Int64
}

// flightKey identifies one coalescable execution. Unlike the plan key it
// names the document generation: results depend on it, so a flight never
// serves a superseded generation's answer to a request that arrived after
// the reload.
type flightKey struct {
	query string // canonical text
	opts  string // plancache.OptionsKey
	doc   string
	gen   uint64
}

// job is one admitted query request: the leader's execution of its flight.
type job struct {
	req      *QueryRequest
	enqueued time.Time

	// canonQuery is the canonical query text the plan cache, profile and
	// flight are keyed under; normalized reports it differs from req.Query.
	canonQuery string
	normalized bool
	// flight runs the job on its execution context and receives its outcome
	// for every waiter.
	flight *flight.Flight[flightKey, *QueryResponse]
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
		quit:        make(chan struct{}),
		start:       time.Now(),
		stopEval:    make(chan struct{}),
		evalDone:    make(chan struct{}),
		docFaults:   map[string]int{},
		quarantined: map[string]bool{},
		profile:     newProfile(),
	}
	mState.Set(int64(StateHealthy))
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	go s.evalLoop()
	return s
}

// State returns the server's current serving state.
func (s *Server) State() State { return State(s.state.Load()) }

// setState publishes a state transition.
func (s *Server) setState(st State) {
	s.state.Store(int32(st))
	mState.Set(int64(st))
}

// evalLoop judges the window counters every EvalWindow: a window that
// crossed a degrade threshold keeps (or makes) the server degraded, a quiet
// window restores healthy. Draining is terminal; the loop exits when
// Shutdown closes stopEval.
func (s *Server) evalLoop() {
	defer close(s.evalDone)
	t := time.NewTicker(s.cfg.EvalWindow)
	defer t.Stop()
	for {
		select {
		case <-s.stopEval:
			return
		case <-t.C:
		}
		rej := s.winRej.Swap(0)
		faults := s.winFault.Swap(0)
		tripped := rej >= s.cfg.DegradeRejects || faults >= s.cfg.DegradeFaults
		switch s.State() {
		case StateHealthy:
			if tripped {
				s.setState(StateDegraded)
			}
		case StateDegraded:
			if !tripped {
				s.setState(StateHealthy)
			}
		case StateDraining:
			return
		}
	}
}

// noteReject records one queue-full rejection and degrades immediately when
// the window threshold is crossed (sustained overload must not wait for the
// window tick to start shedding).
func (s *Server) noteReject() {
	mRejected.Inc()
	if s.winRej.Add(1) >= s.cfg.DegradeRejects && s.State() == StateHealthy {
		s.setState(StateDegraded)
	}
}

// noteStoreFault records one store fault against doc, degrading on the
// window threshold and quarantining the document after QuarantineAfter
// consecutive faults.
func (s *Server) noteStoreFault(doc string) {
	if s.winFault.Add(1) >= s.cfg.DegradeFaults && s.State() == StateHealthy {
		s.setState(StateDegraded)
	}
	if s.cfg.QuarantineAfter < 0 {
		return
	}
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	s.docFaults[doc]++
	if s.docFaults[doc] >= s.cfg.QuarantineAfter && !s.quarantined[doc] {
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

// Shutdown drains the service: new queries get 503, queued and in-flight
// queries finish (bounded by their own deadlines), workers exit. The
// context bounds the wait; its expiry abandons the drain and returns the
// context's error.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		s.setState(StateDraining)
		close(s.stopEval)
		go func() {
			s.jobWG.Wait()
			close(s.quit)
			s.wg.Wait()
		}()
	}
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		<-s.evalDone
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.jobs:
			s.execute(j)
		case <-s.quit:
			// Drain anything that slipped in between jobWG.Wait observing
			// zero and quit closing (cannot happen today — quit closes only
			// after the job WaitGroup drains — but cheap insurance).
			for {
				select {
				case j := <-s.jobs:
					s.execute(j)
				default:
					return
				}
			}
		}
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

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/documents", s.handleDocuments)
	mux.HandleFunc("/reload", s.handleReload)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/healthz/live", s.handleLive)
	mux.HandleFunc("/healthz/ready", s.handleReady)
	mux.HandleFunc("/buildinfo", s.handleBuildInfo)
	mux.HandleFunc("/metrics", metrics.ServePrometheus)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := s.State()
	status := "ok"
	code := http.StatusOK
	if st == StateDraining {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	httpapi.WriteJSON(w, code, map[string]any{
		"status":    status,
		"state":     st.String(),
		"uptime_ms": time.Since(s.start).Milliseconds(),
		"documents": len(s.cfg.Catalog.List()),
	})
}

// handleLive is the liveness probe: 200 while the process can answer HTTP
// at all, whatever the serving state — a degraded or draining server must
// not be restarted by an orchestrator, only taken out of rotation.
func (s *Server) handleLive(w http.ResponseWriter, _ *http.Request) {
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"status":    "alive",
		"uptime_ms": time.Since(s.start).Milliseconds(),
	})
}

// handleReady is the readiness probe: 200 only in the healthy state, 503
// (with the state's name) while degraded or draining, so load balancers
// steer new traffic away while the server recovers or drains.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	st := s.State()
	code := http.StatusOK
	if st != StateHealthy {
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	httpapi.WriteJSON(w, code, map[string]any{
		"status":    st.String(),
		"uptime_ms": time.Since(s.start).Milliseconds(),
	})
}

func (s *Server) handleDocuments(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpapi.WriteError(w, httpapi.Errf(http.StatusMethodNotAllowed, httpapi.CodeBadRequest, "GET only"))
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"documents": s.cfg.Catalog.List()})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	name, ok := httpapi.DocumentParam(w, r)
	if !ok {
		return
	}
	gen, err := s.cfg.Catalog.Reload(name)
	if err != nil {
		// A failed reload leaves the previous generation serving; the
		// caller learns the attempt failed, queries keep working.
		httpapi.WriteError(w, catalogErr(err))
		return
	}
	// A fresh generation starts with a clean bill of health. Cached plans
	// hold nothing per document, so they serve it as they are.
	s.liftQuarantine(name)
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"document":   name,
		"generation": gen,
	})
}

// drainErr is the drain verdict of /query: nil while serving, the
// structured 503 (counted as a rejection) once Shutdown began.
func (s *Server) drainErr() *httpapi.Error {
	if !s.draining.Load() {
		return nil
	}
	mRejected.Inc()
	return httpapi.Errf(http.StatusServiceUnavailable, httpapi.CodeShuttingDown, "server is draining")
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !httpapi.ReadQuery(w, r, s.drainErr, &req) {
		return
	}
	switch req.Mode {
	case "", "improved", "canonical":
	default:
		httpapi.WriteError(w, httpapi.Errf(http.StatusBadRequest, httpapi.CodeBadRequest, "unknown mode %q", req.Mode))
		return
	}

	// Quarantine fast-path: a document whose store keeps tripping sticky
	// faults answers a structured store_fault immediately instead of
	// burning a worker on an I/O path known to fail.
	if s.isQuarantined(req.Document) {
		mQuarHits.Inc()
		httpapi.WriteError(w, httpapi.Errf(http.StatusServiceUnavailable, httpapi.CodeStoreFault,
			"document %q quarantined after repeated store faults; POST /reload?document=%s to restore",
			req.Document, req.Document))
		return
	}

	// ctx is this waiter's own deadline: it bounds how long the client
	// waits, never how long a shared execution may run.
	ctx, cancel := context.WithTimeout(r.Context(),
		httpapi.Timeout(req.TimeoutMS, s.cfg.DefaultTimeout, s.cfg.MaxTimeout))
	defer cancel()

	// Singleflight: identical (canonical query, options, document
	// generation) requests share one execution, bounded by MaxTimeout and
	// cancelled when its last waiter leaves. An unknown document keys
	// generation 0, so its requests coalesce on one 404. Joining precedes
	// the degraded-mode shed — a join costs no worker, so shedding it would
	// only lose the coalescing win. The leader registers before its own
	// admission checks: a shed or queue-full verdict then fans out to
	// everyone who coalesced behind it, which is exactly the admission
	// decision one execution of that query deserves.
	canonQuery, normalized := s.canon.Canonicalize(req.Query)
	gen, _ := s.cfg.Catalog.Generation(req.Document)
	f, leader := s.flights.Join(flightKey{query: canonQuery, opts: plancache.OptionsKey(s.compileOpts(&req)),
		doc: req.Document, gen: gen}, s.cfg.MaxTimeout)
	expired := "request expired while executing"
	if leader {
		if e := s.admit(&job{req: &req, canonQuery: canonQuery, normalized: normalized, flight: f}); e != nil {
			f.Finish(nil, e)
		}
	} else {
		s.coalesced.Add(1)
		mCoalesced.Inc()
		expired = "request expired awaiting a coalesced execution"
	}
	resp, e, ok := f.Wait(ctx)
	switch {
	case !ok:
		httpapi.WriteError(w, httpapi.Errf(http.StatusGatewayTimeout, httpapi.CodeTimeout, "%s", expired))
	case e != nil:
		httpapi.WriteError(w, e)
	case leader:
		httpapi.WriteJSON(w, http.StatusOK, resp)
	default:
		// Shallow copy: waiters share result slices (read-only from here)
		// but flag their own coalesced delivery.
		cp := *resp
		cp.Coalesced = true
		httpapi.WriteJSON(w, http.StatusOK, &cp)
	}
}

// admit queues a leader's job, or returns the admission verdict against it.
func (s *Server) admit(j *job) *httpapi.Error {
	// Degraded mode sheds by cost class before touching the queue: the
	// expensive queries go first, and what remains competes for a shrunk
	// queue so the latency of admitted work stays bounded.
	if s.State() == StateDegraded {
		if s.costClass(j.req, j.canonQuery) == costHigh {
			mShed.With(costHigh).Inc()
			mRejected.Inc()
			return httpapi.Errf(http.StatusTooManyRequests, httpapi.CodeOverloaded,
				"degraded: shedding high-cost queries")
		}
		if s.queued.Load() >= int64(s.cfg.DegradedQueueDepth) {
			mShed.With(costLow).Inc()
			mRejected.Inc()
			return httpapi.Errf(http.StatusTooManyRequests, httpapi.CodeOverloaded,
				"degraded: admission queue shrunk to %d", s.cfg.DegradedQueueDepth)
		}
	}

	// Admission: the jobs channel is the queue; a full channel answers an
	// immediate structured 429 rather than stalling the client.
	j.enqueued = time.Now()
	s.jobWG.Add(1)
	// Re-check after jobWG.Add so Shutdown's Wait cannot miss us.
	if e := s.drainErr(); e != nil {
		s.jobWG.Done()
		return e
	}
	select {
	case s.jobs <- j:
		s.queued.Add(1)
		mInFlight.Add(1)
		return nil
	default:
		s.jobWG.Done()
		s.noteReject()
		return httpapi.Errf(http.StatusTooManyRequests, httpapi.CodeOverloaded,
			"admission queue full (%d executing, %d queued)", s.cfg.Workers, s.cfg.QueueDepth)
	}
}

// compileOpts builds the compile options for one request. costClass and
// execute both go through here: the cost probe peeks the plan cache under
// the same canonical key execute compiles under, so any drift between the
// two would silently misclassify every cached plan.
func (s *Server) compileOpts(req *QueryRequest) natix.Options {
	opt := natix.Options{
		Namespaces:      req.Namespaces,
		Limits:          s.cfg.Limits,
		EnablePathIndex: s.cfg.PathIndex,
	}
	if req.Mode == "canonical" {
		opt.Mode = natix.Canonical
	}
	return opt
}

// costClass classifies a query for degraded-mode shedding from two
// signals: the cached plan's static CostBytes and the workload profile's
// EWMA of this query's observed run times on this document. With both, the
// blended score 0.5·(bytes/HighCostBytes) + 0.5·(ewma/HighCostSeconds)
// crosses into high at 1.0 — a query can earn the class on either
// dimension alone at 2× its threshold, or on both at their thresholds. One
// signal classifies by its own threshold; neither falls back to expression
// length (an unknown query is only high-cost when its source alone says so
// — degraded mode must not starve cheap first-time queries).
func (s *Server) costClass(req *QueryRequest, canonQuery string) string {
	costBytes := int64(-1)
	if s.cfg.Cache != nil {
		k := plancache.Key{Query: canonQuery, Opts: plancache.OptionsKey(s.compileOpts(req))}
		if plan, ok := s.cfg.Cache.Peek(k); ok {
			costBytes = plan.CostBytes()
		}
	}
	ewma, haveHist := s.profile.ewma(req.Document, canonQuery, req.Mode)
	highSecs := s.cfg.HighCostSeconds.Seconds()
	switch {
	case costBytes >= 0 && haveHist:
		score := 0.5*float64(costBytes)/float64(s.cfg.HighCostBytes) + 0.5*ewma/highSecs
		if score >= 1 {
			return costHigh
		}
		return costLow
	case haveHist:
		if ewma >= highSecs {
			return costHigh
		}
		return costLow
	case costBytes >= 0:
		if costBytes >= s.cfg.HighCostBytes {
			return costHigh
		}
		return costLow
	}
	if int64(len(req.Query)) >= 192 {
		return costHigh
	}
	return costLow
}

// execute runs one admitted job on a worker goroutine and publishes its
// outcome to every waiter of the job's flight, the leader included.
func (s *Server) execute(j *job) {
	defer s.jobWG.Done()
	resp, err := s.run(j)
	if err != nil {
		mErrors.Inc()
	}
	j.flight.Finish(resp, err)
	mInFlight.Add(-1)
}

// run evaluates one job on its flight's execution context.
func (s *Server) run(j *job) (*QueryResponse, *httpapi.Error) {
	ctx := j.flight.Context()
	s.queued.Add(-1)
	if metrics.Enabled() {
		mRequests.Inc()
		mQueueWait.ObserveDuration(time.Since(j.enqueued))
		defer func() { mServeTime.ObserveDuration(time.Since(j.enqueued)) }()
	}
	// Every waiter may have left while the job queued.
	if ctx.Err() != nil {
		return nil, httpapi.Errf(http.StatusGatewayTimeout, httpapi.CodeTimeout, "request expired while queued")
	}

	h, err := s.cfg.Catalog.Acquire(j.req.Document)
	if err != nil {
		e := catalogErr(err)
		if e.Code == httpapi.CodeStoreFault {
			// The document exists but its store would not open: counted
			// toward degradation and quarantine.
			s.noteStoreFault(j.req.Document)
		}
		return nil, e
	}
	defer h.Release()

	opt := s.compileOpts(j.req)
	var plan *natix.Prepared
	cached := false
	if s.cfg.Cache != nil {
		plan, cached, err = s.cfg.Cache.GetOrCompileNormalized(j.canonQuery, j.normalized, opt)
	} else {
		plan, err = natix.CompileWith(j.canonQuery, opt)
	}
	if err != nil {
		return nil, httpapi.Errf(http.StatusBadRequest, httpapi.CodeParseError, "%v", err)
	}

	s.executed.Add(1)
	runStart := time.Now()
	res, err := plan.RunContext(ctx, natix.RootNode(h.Doc), nil)
	runSecs := time.Since(runStart).Seconds()
	if err != nil {
		e := classify(err)
		if e.Code == httpapi.CodeStoreFault {
			s.noteStoreFault(j.req.Document)
		} else if e.Code == httpapi.CodeTimeout || e.Code == httpapi.CodeLimit {
			// A run that blew its deadline or budget is the strongest
			// possible expensive signal — fold the elapsed time in so
			// admission reclassifies it.
			s.profile.observe(j.req.Document, j.canonQuery, j.req.Mode, runSecs)
		}
		return nil, e
	}
	s.noteStoreOK(j.req.Document)
	s.profile.observe(j.req.Document, j.canonQuery, j.req.Mode, runSecs)
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
	return ServeCounters{Executed: s.executed.Load(), Coalesced: s.coalesced.Load()}
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
		qn := QueryNode{Value: n.StringValue()}
		switch n.Kind() {
		case dom.KindDocument:
			qn.Kind = "document"
		case dom.KindElement:
			qn.Kind = "element"
			qn.Name = n.Name()
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
		}
		out.Nodes = append(out.Nodes, qn)
	}
	return out
}
