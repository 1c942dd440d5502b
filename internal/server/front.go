package server

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"natix"
	"natix/internal/canon"
	"natix/internal/flight"
	"natix/internal/httpapi"
	"natix/internal/metrics"
	"natix/internal/plancache"
	"natix/internal/store"
)

// Request is a tier's POST /query body: the fields every tier shares, plus
// whatever the tier adds. Strict decoding into it rejects anything else.
type Request interface {
	httpapi.Request
	// Common returns the shared fields.
	Common() *QueryRequest
}

// Common implements Request.
func (q *QueryRequest) Common() *QueryRequest { return q }

// Scope is a tier's part of a flight key: what an answer depends on beyond
// the canonical query and its options. It names a generation, so a flight
// never serves an answer from before a reload or a topology swap to a
// request that arrived after it.
type Scope struct {
	// Target is the document, or the coordinator's document expression (a
	// name, a list or "*": each is its own answer shape).
	Target string
	// Generation is the document's catalog generation, or the topology's.
	// An unknown document keys generation 0, so its requests coalesce on
	// one 404.
	Generation uint64
	// Partial is the coordinator's allow_partial.
	Partial bool
}

// flightKey identifies one coalescable execution.
type flightKey struct {
	query string // canonical text
	opts  string // plancache.OptionsKey of mode and namespaces
	scope Scope
}

// Job is a leader's execution of its flight. The executor runs it on
// Context and publishes its outcome through Finish, exactly once.
type Job[Req Request, Resp any] struct {
	Req Req
	// Canon is the canonical query text; Normalized reports that it differs
	// from the request's spelling.
	Canon      string
	Normalized bool

	flight *flight.Flight[flightKey, Resp]
	jobs   *sync.WaitGroup
}

// Context is the execution context: detached from every request, bounded
// by the tier's MaxTimeout, cancelled when the last waiter leaves.
func (j *Job[Req, Resp]) Context() context.Context { return j.flight.Context() }

// Finish publishes the outcome to every waiter and releases the job's hold
// on Shutdown.
func (j *Job[Req, Resp]) Finish(resp Resp, e *httpapi.Error) {
	j.flight.Finish(resp, e)
	j.jobs.Done()
}

// Probe names a health endpoint.
type Probe int

// The probes.
const (
	// ProbeHealthz is GET /healthz, the summary: 503 while draining.
	ProbeHealthz Probe = iota
	// ProbeLive is GET /healthz/live: 200 while the process answers HTTP
	// at all, whatever the serving state. A draining tier must not be
	// restarted by an orchestrator, only taken out of rotation.
	ProbeLive
	// ProbeReady is GET /healthz/ready: 503 with Retry-After unless the
	// tier is ready, so load balancers steer new traffic away.
	ProbeReady
)

// Executor is a tier's half of the front.
type Executor[Req Request, Resp any] struct {
	Role     string        // on /buildinfo and in the drain message
	Features BuildFeatures // on /buildinfo
	// DefaultTimeout applies to a request naming none; MaxTimeout caps
	// request timeouts and bounds every shared execution.
	DefaultTimeout, MaxTimeout time.Duration
	// Rejected counts the drain's 503s; Coalesced counts joined requests.
	Rejected, Coalesced *metrics.Counter

	NewRequest func() Req      // an empty /query body
	Scope      func(Req) Scope // the tier's part of the flight key
	// Start admits a leader's job and starts it, or returns the admission
	// verdict against it; a started job must Finish.
	Start func(Job[Req, Resp]) *httpapi.Error
	// Joined returns the shallow copy of a shared answer that a joined
	// waiter gets (result slices are read-only from here), flagged
	// coalesced.
	Joined    func(Resp) Resp
	Documents func() any // the GET /documents list
	Reload    func(ctx context.Context, name string) (any, *httpapi.Error)
	// Health returns the tier's verdict on a probe: readiness (read for
	// ProbeReady only), the status word, and the tier's fields of the body.
	Health func(p Probe, draining bool) (ready bool, status string, fields map[string]any)
	// Drain, if set, runs once when Shutdown begins; Stop, if set, runs
	// once after every started job has finished.
	Drain, Stop func()
}

// Front is a tier's HTTP face over its Executor.
type Front[Req Request, Resp any] struct {
	exec    Executor[Req, Resp]
	canon   canon.Memo
	flights flight.Group[flightKey, Resp]
	start   time.Time

	jobs      sync.WaitGroup // started, not yet finished jobs
	draining  atomic.Bool
	drained   chan struct{} // closed once drained and stopped
	coalesced atomic.Int64
}

// NewFront returns the front over exec.
func NewFront[Req Request, Resp any](exec Executor[Req, Resp]) *Front[Req, Resp] {
	return &Front[Req, Resp]{exec: exec, start: time.Now(), drained: make(chan struct{})}
}

// Coalesced reports how many requests were answered by joining an
// identical in-flight execution.
func (f *Front[Req, Resp]) Coalesced() int64 { return f.coalesced.Load() }

// Flights reports how many flights are in progress.
func (f *Front[Req, Resp]) Flights() int { return f.flights.Len() }

// Mux returns a mux serving the shared endpoints; a tier may add its own.
func (f *Front[Req, Resp]) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", f.handleQuery)
	mux.HandleFunc("/documents", f.handleDocuments)
	mux.HandleFunc("/reload", f.handleReload)
	mux.HandleFunc("/healthz", f.probe(ProbeHealthz))
	mux.HandleFunc("/healthz/live", f.probe(ProbeLive))
	mux.HandleFunc("/healthz/ready", f.probe(ProbeReady))
	mux.HandleFunc("/buildinfo", f.handleBuildInfo)
	mux.HandleFunc("/metrics", metrics.ServePrometheus)
	return mux
}

// Shutdown drains the tier: new queries get a structured 503, started jobs
// finish (bounded by their own deadlines), then the executor stops. The
// context bounds the wait; its expiry abandons the wait and returns the
// context's error.
func (f *Front[Req, Resp]) Shutdown(ctx context.Context) error {
	if f.draining.CompareAndSwap(false, true) {
		if f.exec.Drain != nil {
			f.exec.Drain()
		}
		go func() {
			f.jobs.Wait()
			if f.exec.Stop != nil {
				f.exec.Stop()
			}
			close(f.drained)
		}()
	}
	select {
	case <-f.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// drainErr is the drain verdict of /query: nil while serving, the
// structured 503 (counted as a rejection) once Shutdown began.
func (f *Front[Req, Resp]) drainErr() *httpapi.Error {
	if !f.draining.Load() {
		return nil
	}
	f.exec.Rejected.Inc()
	return httpapi.Errf(http.StatusServiceUnavailable, httpapi.CodeShuttingDown, "%s is draining", f.exec.Role)
}

// parseMode maps a request's mode onto the translation mode.
func parseMode(mode string) (natix.TranslationMode, bool) {
	switch mode {
	case "", "improved":
		return natix.Improved, true
	case "canonical":
		return natix.Canonical, true
	}
	return 0, false
}

func (f *Front[Req, Resp]) handleQuery(w http.ResponseWriter, r *http.Request) {
	req := f.exec.NewRequest()
	if !httpapi.ReadQuery(w, r, f.drainErr, req) {
		return
	}
	q := req.Common()
	mode, ok := parseMode(q.Mode)
	if !ok {
		httpapi.WriteError(w, httpapi.Errf(http.StatusBadRequest, httpapi.CodeBadRequest, "unknown mode %q", q.Mode))
		return
	}
	// ctx is this waiter's own deadline: it bounds how long the client
	// waits, never how long a shared execution may run.
	ctx, cancel := context.WithTimeout(r.Context(),
		httpapi.Timeout(q.TimeoutMS, f.exec.DefaultTimeout, f.exec.MaxTimeout))
	defer cancel()

	// Singleflight: identical requests share one execution, bounded by
	// MaxTimeout and cancelled when its last waiter leaves. Joining comes
	// before admission: a join costs no execution, so refusing it would
	// only lose the coalescing win. The leader registers before its own
	// admission, so an admission verdict fans out to everyone who
	// coalesced behind it, which is exactly the decision one execution of
	// that query deserves. The leader waits like any joiner, so its own
	// client leaving is one waiter leaving.
	canonQuery, normalized := f.canon.Canonicalize(q.Query)
	fl, leader := f.flights.Join(flightKey{
		query: canonQuery,
		opts:  plancache.OptionsKey(natix.Options{Mode: mode, Namespaces: q.Namespaces}),
		scope: f.exec.Scope(req),
	}, f.exec.MaxTimeout)
	expired := "request expired while executing"
	if leader {
		f.lead(Job[Req, Resp]{Req: req, Canon: canonQuery, Normalized: normalized, flight: fl, jobs: &f.jobs})
	} else {
		f.coalesced.Add(1)
		f.exec.Coalesced.Inc()
		expired = "request expired awaiting a coalesced execution"
	}
	resp, e, ok := fl.Wait(ctx)
	switch {
	case !ok:
		httpapi.WriteError(w, httpapi.Errf(http.StatusGatewayTimeout, httpapi.CodeTimeout, "%s", expired))
	case e != nil:
		httpapi.WriteError(w, e)
	case leader:
		httpapi.WriteJSON(w, http.StatusOK, resp)
	default:
		httpapi.WriteJSON(w, http.StatusOK, f.exec.Joined(resp))
	}
}

// lead starts a leader's job, or finishes its flight with the verdict
// against it.
func (f *Front[Req, Resp]) lead(j Job[Req, Resp]) {
	f.jobs.Add(1)
	// Re-check after Add so Shutdown's Wait cannot miss the job.
	e := f.drainErr()
	if e == nil {
		e = f.exec.Start(j)
	}
	if e != nil {
		var none Resp
		j.Finish(none, e)
	}
}

// getOnly answers 405 to anything but GET and reports whether to serve.
func getOnly(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		httpapi.WriteError(w, httpapi.Errf(http.StatusMethodNotAllowed, httpapi.CodeBadRequest, "GET only"))
		return false
	}
	return true
}

func (f *Front[Req, Resp]) handleDocuments(w http.ResponseWriter, r *http.Request) {
	if getOnly(w, r) {
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"documents": f.exec.Documents()})
	}
}

func (f *Front[Req, Resp]) handleBuildInfo(w http.ResponseWriter, r *http.Request) {
	if getOnly(w, r) {
		httpapi.WriteJSON(w, http.StatusOK, BuildInfo{
			Version:            natix.Version,
			GoVersion:          runtime.Version(),
			StoreFormatVersion: store.FormatVersion,
			GOMAXPROCS:         runtime.GOMAXPROCS(0),
			Role:               f.exec.Role,
			Features:           f.exec.Features,
		})
	}
}

func (f *Front[Req, Resp]) handleReload(w http.ResponseWriter, r *http.Request) {
	name, ok := httpapi.DocumentParam(w, r)
	if !ok {
		return
	}
	body, e := f.exec.Reload(r.Context(), name)
	if e != nil {
		httpapi.WriteError(w, e)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, body)
}

// probe serves one health endpoint: the tier's fields plus status and
// uptime_ms.
func (f *Front[Req, Resp]) probe(p Probe) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		draining := f.draining.Load()
		ready, status, body := f.exec.Health(p, draining)
		code := http.StatusOK
		switch {
		case p == ProbeHealthz && draining:
			code, status = http.StatusServiceUnavailable, "draining"
		case p == ProbeReady && !ready:
			code = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "1")
		}
		if body == nil {
			body = map[string]any{}
		}
		body["status"] = status
		body["uptime_ms"] = time.Since(f.start).Milliseconds()
		httpapi.WriteJSON(w, code, body)
	}
}

// BuildFeatures lists the serving features a process has enabled — the
// part of /buildinfo that must agree across a cluster's shards for
// placement-independent answers (a shard with the path index off is
// correct but slow; a shard on another store format version cannot open
// the same files).
type BuildFeatures struct {
	// Batch reports the batched execution protocol (always on).
	Batch bool `json:"batch"`
	// PathIndex reports cost-based path-index access-path selection.
	PathIndex bool `json:"path_index"`
}

// BuildInfo is the GET /buildinfo payload: enough identity to verify that
// every shard of a cluster runs the same engine the same way.
type BuildInfo struct {
	Version            string        `json:"version"`
	GoVersion          string        `json:"go_version"`
	StoreFormatVersion int           `json:"store_format_version"`
	GOMAXPROCS         int           `json:"gomaxprocs"`
	Role               string        `json:"role"`
	Features           BuildFeatures `json:"features"`
}
