// Package server is the HTTP/JSON query service over the engine: a bounded
// worker pool executes compiled plans from the plan cache against documents
// acquired from the catalog, with per-request deadlines and resource limits
// mapped onto the engine's RunContext governor.
//
// Endpoints:
//
//	POST /query          evaluate an XPath expression against a named document
//	GET  /documents      list the document catalog
//	POST /reload         reload a named document (new generation, invalidates plans)
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
	"encoding/json"
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

	// DisableNormalization serves queries under their verbatim text instead
	// of the canonical form: plan cache, singleflight and workload profile
	// all key exact-text. Benchmark/ablation switch.
	DisableNormalization bool
	// DisableSingleflight executes every admitted request independently,
	// concurrent duplicates included. Benchmark/ablation switch.
	DisableSingleflight bool
	// HighCostSeconds is the profiled EWMA run time at or above which a
	// query is high-cost on history alone (default 250ms). Admission blends
	// it with the static CostBytes threshold when both signals exist.
	HighCostSeconds time.Duration
	// WarmTopK bounds how many of a document's hottest profiled queries are
	// recompiled into the plan cache after a reload (and persisted per
	// document when ProfilePath is set). Default 8; negative disables
	// warming and persistence.
	WarmTopK int
	// ProfilePath, when set, persists the workload profile: loaded at New,
	// written (top WarmTopK entries per document, atomic rename) at
	// Shutdown.
	ProfilePath string
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
	if c.WarmTopK == 0 {
		c.WarmTopK = 8
	}
	if c.WarmTopK < 0 {
		c.WarmTopK = 0 // 0 disables from here on
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

	// Adaptive serving: singleflight registry + canonicalization memo
	// (singleflight.go) and the workload profile (profile.go).
	flightState
	profile *profile

	// Server-local execution accounting (the registry metrics aggregate
	// across servers and test runs; these do not).
	executed  atomic.Int64
	coalesced atomic.Int64
}

// job is one admitted query request.
type job struct {
	req      *QueryRequest
	ctx      context.Context
	enqueued time.Time
	done     chan struct{}
	resp     *QueryResponse
	err      *apiError

	// canonQuery is the canonical query text the plan cache, profile and
	// flight are keyed under; normalized reports it differs from req.Query.
	canonQuery string
	normalized bool
	// flight, when non-nil, receives the job's outcome for every waiter;
	// fkey is its registry key.
	flight *flight
	fkey   flightKey
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
	s.flights = map[flightKey]*flight{}
	s.canonMemo = map[string]canonResult{}
	if cfg.ProfilePath != "" {
		// A missing file is a first run; a corrupt one serves empty rather
		// than refusing to start (the profile is an optimization, not state).
		_ = s.profile.load(cfg.ProfilePath)
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
		if s.cfg.ProfilePath != "" && s.cfg.WarmTopK > 0 {
			// Persist the workload profile before the drain: the next
			// process pre-warms from it. Best-effort — a full disk must not
			// block the drain.
			_ = s.profile.save(s.cfg.ProfilePath, s.cfg.WarmTopK)
		}
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

// Error codes of the structured error envelope.
const (
	CodeBadRequest   = "bad_request" // malformed JSON, missing fields
	CodeParseError   = "parse_error" // the expression did not compile
	CodeUnknownDoc   = "unknown_document"
	CodeTimeout      = "timeout"        // deadline exceeded or client gone
	CodeLimit        = "limit_exceeded" // a resource budget tripped
	CodeOverloaded   = "overloaded"     // admission queue full
	CodeShuttingDown = "shutting_down"  // drain in progress
	CodeStoreFault   = "store_fault"    // document I/O or corruption
	CodeInternal     = "internal"       // engine defect (InternalError)
)

// apiError is the structured error envelope every failure path returns.
type apiError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMS is the machine-readable retry hint accompanying every
	// 429/503: clients should back off at least this long. The Retry-After
	// header carries the same hint rounded up to whole seconds.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

func errf(status int, code, format string, args ...any) *apiError {
	e := &apiError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		e.RetryAfterMS = defaultRetryAfterMS
	}
	return e
}

// defaultRetryAfterMS is the backpressure hint on 429/503 responses.
const defaultRetryAfterMS = 250

// isUnknownDoc reports whether an Acquire error means the name is not
// registered (vs. a store fault opening a registered document).
func isUnknownDoc(err error) bool { return errors.Is(err, catalog.ErrUnknown) }

// classify maps an execution error onto the structured envelope,
// distinguishing limit trips, timeouts, parse errors and store faults.
func classify(err error) *apiError {
	var le *natix.LimitError
	if errors.As(err, &le) {
		return errf(http.StatusUnprocessableEntity, CodeLimit, "%v", le)
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return errf(http.StatusGatewayTimeout, CodeTimeout, "query evaluation timed out")
	}
	var ie *natix.InternalError
	if errors.As(err, &ie) {
		return errf(http.StatusInternalServerError, CodeInternal, "engine error: %v", ie.Value)
	}
	return errf(http.StatusInternalServerError, CodeStoreFault, "%v", err)
}

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/documents", s.handleDocuments)
	mux.HandleFunc("/reload", s.handleReload)
	mux.HandleFunc("/warm", s.handleWarm)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/healthz/live", s.handleLive)
	mux.HandleFunc("/healthz/ready", s.handleReady)
	mux.HandleFunc("/buildinfo", s.handleBuildInfo)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		metrics.Default.WritePrometheus(w)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, e *apiError) {
	// Every backpressure status carries the retry contract both ways: the
	// coarse whole-seconds Retry-After header (rounded up, minimum 1) and
	// the precise retry_after_ms envelope field.
	if e.RetryAfterMS > 0 {
		secs := (e.RetryAfterMS + 999) / 1000
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	} else if e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, e.Status, map[string]*apiError{"error": e})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := s.State()
	status := "ok"
	code := http.StatusOK
	if st == StateDraining {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
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
	writeJSON(w, http.StatusOK, map[string]any{
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
	writeJSON(w, code, map[string]any{
		"status":    st.String(),
		"uptime_ms": time.Since(s.start).Milliseconds(),
	})
}

func (s *Server) handleDocuments(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, errf(http.StatusMethodNotAllowed, CodeBadRequest, "GET only"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"documents": s.cfg.Catalog.List()})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, errf(http.StatusMethodNotAllowed, CodeBadRequest, "POST only"))
		return
	}
	name := r.URL.Query().Get("document")
	if name == "" {
		writeErr(w, errf(http.StatusBadRequest, CodeBadRequest, "missing ?document="))
		return
	}
	gen, err := s.cfg.Catalog.Reload(name)
	if err != nil {
		if isUnknownDoc(err) {
			writeErr(w, errf(http.StatusNotFound, CodeUnknownDoc, "%v", err))
		} else {
			// A failed reload leaves the previous generation serving; the
			// caller learns the attempt failed, queries keep working.
			writeErr(w, errf(http.StatusInternalServerError, CodeStoreFault, "%v", err))
		}
		return
	}
	invalidated := 0
	if s.cfg.Cache != nil {
		invalidated = s.cfg.Cache.InvalidateDoc(name)
	}
	// A fresh generation starts with a clean bill of health.
	s.liftQuarantine(name)
	// Pre-warm the fresh generation from the workload profile so the
	// invalidation above is not a cold-cache cliff; the response reports
	// the mitigation so operators can see it working.
	warmed, warmElapsed := s.WarmDoc(name)
	writeJSON(w, http.StatusOK, map[string]any{
		"document":          name,
		"generation":        gen,
		"plans_invalidated": invalidated,
		"warmed":            warmed,
		"warm_compile_us":   warmElapsed.Microseconds(),
	})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, errf(http.StatusMethodNotAllowed, CodeBadRequest, "POST only"))
		return
	}
	if s.draining.Load() {
		mRejected.Inc()
		writeErr(w, errf(http.StatusServiceUnavailable, CodeShuttingDown, "server is draining"))
		return
	}
	var req QueryRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, errf(http.StatusBadRequest, CodeBadRequest, "bad request body: %v", err))
		return
	}
	if req.Query == "" || req.Document == "" {
		writeErr(w, errf(http.StatusBadRequest, CodeBadRequest, "query and document are required"))
		return
	}
	switch req.Mode {
	case "", "improved", "canonical":
	default:
		writeErr(w, errf(http.StatusBadRequest, CodeBadRequest, "unknown mode %q", req.Mode))
		return
	}

	// Quarantine fast-path: a document whose store keeps tripping sticky
	// faults answers a structured store_fault immediately instead of
	// burning a worker on an I/O path known to fail.
	if s.isQuarantined(req.Document) {
		mQuarHits.Inc()
		writeErr(w, errf(http.StatusServiceUnavailable, CodeStoreFault,
			"document %q quarantined after repeated store faults; POST /reload?document=%s to restore",
			req.Document, req.Document))
		return
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	// ctx is this waiter's own deadline: it bounds how long the client
	// waits, never how long a shared execution may run.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	canonQuery, normalized := s.canonicalize(req.Query)

	// Singleflight: identical (canonical query, options, document
	// generation, index epoch) requests share one execution. Joining
	// precedes the degraded-mode shed — a join costs no worker, so shedding
	// it would only lose the coalescing win. The leader registers before
	// its own admission checks: a shed or queue-full verdict then fans out
	// to everyone who coalesced behind it, which is exactly the admission
	// decision one execution of that query deserves.
	var (
		f      *flight
		fk     flightKey
		leader bool
	)
	jctx := ctx
	if !s.cfg.DisableSingleflight {
		if gen, err := s.cfg.Catalog.Generation(req.Document); err == nil {
			epoch, _ := s.cfg.Catalog.IndexEpoch(req.Document)
			fk = flightKey{query: canonQuery, opts: plancache.OptionsKey(s.compileOpts(&req)),
				doc: req.Document, gen: gen, epoch: epoch}
			// The execution context is detached from this request: the
			// leader client cancelling is just one waiter leaving. The
			// flight's refcount cancels execCtx when the last waiter leaves.
			execCtx, execCancel := context.WithTimeout(context.Background(), timeout)
			f, leader = s.joinOrLead(fk, execCancel)
			if !leader {
				execCancel() // joined: this request's exec context is unused
				s.coalesced.Add(1)
				mCoalesced.Inc()
				select {
				case <-f.done:
					if f.err != nil {
						writeErr(w, f.err)
						return
					}
					// Shallow copy: waiters share result slices (read-only
					// from here) but flag their own coalesced delivery.
					cp := *f.resp
					cp.Coalesced = true
					writeJSON(w, http.StatusOK, &cp)
				case <-ctx.Done():
					// This waiter's deadline — leave without touching the
					// flight; the leader finishes for whoever remains.
					f.leave()
					writeErr(w, errf(http.StatusGatewayTimeout, CodeTimeout,
						"request expired awaiting a coalesced execution"))
				}
				return
			}
			jctx = execCtx
			defer func() {
				// Balance the leader's waiter reference on every return
				// path after the flight completed or was abandoned; a
				// cancel on a finished execution is a no-op.
				f.leave()
			}()
		}
	}

	// reject finishes the flight (fanning the verdict to coalesced
	// waiters) before answering the leader itself.
	reject := func(e *apiError) {
		if f != nil {
			s.finishFlight(fk, f, nil, e)
		}
		writeErr(w, e)
	}

	// Degraded mode sheds by cost class before touching the queue: the
	// expensive queries go first, and what remains competes for a shrunk
	// queue so the latency of admitted work stays bounded.
	if s.State() == StateDegraded {
		class := s.costClass(&req, canonQuery)
		if class == costHigh {
			mShed.With(costHigh).Inc()
			mRejected.Inc()
			reject(errf(http.StatusTooManyRequests, CodeOverloaded,
				"degraded: shedding high-cost queries"))
			return
		}
		if s.queued.Load() >= int64(s.cfg.DegradedQueueDepth) {
			mShed.With(costLow).Inc()
			mRejected.Inc()
			reject(errf(http.StatusTooManyRequests, CodeOverloaded,
				"degraded: admission queue shrunk to %d", s.cfg.DegradedQueueDepth))
			return
		}
	}

	// Admission: the jobs channel is the queue; a full channel answers an
	// immediate structured 429 rather than stalling the client.
	j := &job{req: &req, ctx: jctx, enqueued: time.Now(), done: make(chan struct{}),
		canonQuery: canonQuery, normalized: normalized, flight: f, fkey: fk}
	s.jobWG.Add(1)
	if s.draining.Load() {
		// Re-check after jobWG.Add so Shutdown's Wait cannot miss us.
		s.jobWG.Done()
		mRejected.Inc()
		reject(errf(http.StatusServiceUnavailable, CodeShuttingDown, "server is draining"))
		return
	}
	select {
	case s.jobs <- j:
		s.queued.Add(1)
		mInFlight.Add(1)
	default:
		s.jobWG.Done()
		s.noteReject()
		reject(errf(http.StatusTooManyRequests, CodeOverloaded,
			"admission queue full (%d executing, %d queued)", s.cfg.Workers, s.cfg.QueueDepth))
		return
	}
	if f != nil {
		// Leader: consume through the flight like any waiter, bounded by
		// this request's own deadline, not the execution's.
		select {
		case <-f.done:
			if f.err != nil {
				writeErr(w, f.err)
				return
			}
			writeJSON(w, http.StatusOK, f.resp)
		case <-ctx.Done():
			writeErr(w, errf(http.StatusGatewayTimeout, CodeTimeout,
				"request expired while executing"))
		}
		return
	}
	<-j.done
	if j.err != nil {
		writeErr(w, j.err)
		return
	}
	writeJSON(w, http.StatusOK, j.resp)
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
		opt := s.compileOpts(req)
		if gen, err := s.cfg.Catalog.Generation(req.Document); err == nil {
			epoch, _ := s.cfg.Catalog.IndexEpoch(req.Document)
			k := plancache.Key{Query: canonQuery, Opts: plancache.OptionsKey(opt), Doc: req.Document, Gen: gen, Epoch: epoch}
			if plan, ok := s.cfg.Cache.Peek(k); ok {
				costBytes = plan.CostBytes()
			}
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

// execute runs one admitted job on a worker goroutine. The deferred
// publisher fans the outcome out: to the job's flight (every coalesced
// waiter, the leader included) and to the job's own done channel.
func (s *Server) execute(j *job) {
	defer s.jobWG.Done()
	defer func() {
		if j.err != nil {
			mErrors.Inc()
		}
		if j.flight != nil {
			s.finishFlight(j.fkey, j.flight, j.resp, j.err)
			// The execution context served its purpose; release its timer
			// rather than waiting for the deadline or the last waiter.
			j.flight.cancel()
		}
		close(j.done)
		mInFlight.Add(-1)
	}()
	s.queued.Add(-1)
	if metrics.Enabled() {
		mRequests.Inc()
		mQueueWait.ObserveDuration(time.Since(j.enqueued))
		defer func() { mServeTime.ObserveDuration(time.Since(j.enqueued)) }()
	}
	// The request may have timed out or disconnected while queued (for a
	// flight: every waiter left).
	if err := j.ctx.Err(); err != nil {
		j.err = errf(http.StatusGatewayTimeout, CodeTimeout, "request expired while queued")
		return
	}

	h, err := s.cfg.Catalog.Acquire(j.req.Document)
	if err != nil {
		if isUnknownDoc(err) {
			j.err = errf(http.StatusNotFound, CodeUnknownDoc, "%v", err)
		} else {
			// The document exists but its store would not open: a store
			// fault, counted toward degradation and quarantine.
			s.noteStoreFault(j.req.Document)
			j.err = errf(http.StatusInternalServerError, CodeStoreFault, "%v", err)
		}
		return
	}
	defer h.Release()

	opt := s.compileOpts(j.req)
	var plan *natix.Prepared
	cached := false
	if s.cfg.Cache != nil {
		plan, cached, err = s.cfg.Cache.GetOrCompileNormalized(j.canonQuery, j.normalized, opt, h.Name, h.Generation, h.IndexEpoch)
	} else {
		plan, err = natix.CompileWith(j.canonQuery, opt)
	}
	if err != nil {
		j.err = errf(http.StatusBadRequest, CodeParseError, "%v", err)
		return
	}

	s.executed.Add(1)
	runStart := time.Now()
	res, err := plan.RunContext(j.ctx, natix.RootNode(h.Doc), nil)
	runSecs := time.Since(runStart).Seconds()
	if err != nil {
		j.err = classify(err)
		if j.err.Code == CodeStoreFault {
			s.noteStoreFault(j.req.Document)
		} else if j.err.Code == CodeTimeout || j.err.Code == CodeLimit {
			// A run that blew its deadline or budget is the strongest
			// possible expensive signal — fold the elapsed time in so
			// admission reclassifies it.
			s.observeRun(j, plan, runSecs)
		}
		return
	}
	s.noteStoreOK(j.req.Document)
	s.observeRun(j, plan, runSecs)
	j.resp = &QueryResponse{
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
	}
}

// observeRun folds one measured execution into the workload profile.
func (s *Server) observeRun(j *job, plan *natix.Prepared, seconds float64) {
	s.profile.observe(j.req.Document, j.canonQuery, j.req.Mode, ProfileEntry{
		Query:      j.canonQuery,
		Mode:       j.req.Mode,
		Namespaces: j.req.Namespaces,
		CostBytes:  plan.CostBytes(),
	}, seconds)
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

// WarmDoc recompiles the document's hottest profiled queries into the plan
// cache against its current generation and index epoch, returning how many
// plans compiled and the time spent. Reload calls it so a fresh generation
// does not serve its first requests from a cold cache; POST /warm exposes
// it for coordinator topology swaps.
func (s *Server) WarmDoc(name string) (warmed int, elapsed time.Duration) {
	if s.cfg.Cache == nil || s.cfg.WarmTopK <= 0 {
		return 0, 0
	}
	gen, err := s.cfg.Catalog.Generation(name)
	if err != nil {
		return 0, 0
	}
	epoch, _ := s.cfg.Catalog.IndexEpoch(name)
	start := time.Now()
	for _, e := range s.profile.topK(name, s.cfg.WarmTopK) {
		req := &QueryRequest{Query: e.Query, Document: name, Mode: e.Mode, Namespaces: e.Namespaces}
		opt := s.compileOpts(req)
		if _, _, err := s.cfg.Cache.GetOrCompileNormalized(e.Query, false, opt, name, gen, epoch); err == nil {
			warmed++
		}
	}
	return warmed, time.Since(start)
}

// handleWarm pre-warms a document's plan cache from the workload profile
// without reloading it. The cluster coordinator fans it out after a
// topology swap, when shards gain documents they have history for but no
// compiled plans.
func (s *Server) handleWarm(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, errf(http.StatusMethodNotAllowed, CodeBadRequest, "POST only"))
		return
	}
	name := r.URL.Query().Get("document")
	if name == "" {
		writeErr(w, errf(http.StatusBadRequest, CodeBadRequest, "missing ?document="))
		return
	}
	if _, err := s.cfg.Catalog.Generation(name); err != nil {
		if isUnknownDoc(err) {
			writeErr(w, errf(http.StatusNotFound, CodeUnknownDoc, "%v", err))
		} else {
			writeErr(w, errf(http.StatusInternalServerError, CodeStoreFault, "%v", err))
		}
		return
	}
	warmed, elapsed := s.WarmDoc(name)
	writeJSON(w, http.StatusOK, map[string]any{
		"document":        name,
		"warmed":          warmed,
		"warm_compile_us": elapsed.Microseconds(),
	})
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
