// Package httpapi is the wire contract natix-serve speaks in both roles,
// shard and cluster coordinator: the structured error envelope with its
// code vocabulary and retry hint, JSON response writing, and the POST /query
// prelude. One definition keeps the two tiers byte-identical on every
// failure path, so a client cannot tell which tier answered.
package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

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
	// CodeShardUnreachable marks a shard the coordinator could not reach:
	// known-unhealthy in the routing table, or a transport failure that
	// survived the client's retries.
	CodeShardUnreachable = "shard_unreachable"
)

// Error is the structured error envelope every failure path returns.
type Error struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMS is the machine-readable retry hint accompanying every
	// 429/503: clients should back off at least this long. The Retry-After
	// header carries the same hint rounded up to whole seconds.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// Envelope is the body of every error response: {"error": {...}}.
type Envelope struct {
	Error *Error `json:"error"`
}

// defaultRetryAfterMS is the backpressure hint on 429/503 responses.
const defaultRetryAfterMS = 250

// Errf builds an envelope; 429 and 503 carry the default retry hint.
func Errf(status int, code, format string, args ...any) *Error {
	e := &Error{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
	if isBackpressure(status) {
		e.RetryAfterMS = defaultRetryAfterMS
	}
	return e
}

func isBackpressure(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// WriteJSON answers status with v as JSON (HTML characters unescaped).
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// WriteError answers e. Every backpressure status carries the retry
// contract both ways: the coarse whole-seconds Retry-After header (rounded
// up, minimum 1) and the precise retry_after_ms envelope field.
func WriteError(w http.ResponseWriter, e *Error) {
	if e.RetryAfterMS > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(max(1, (e.RetryAfterMS+999)/1000), 10))
	} else if isBackpressure(e.Status) {
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, e.Status, Envelope{Error: e})
}

// Request is what the /query prelude needs to know of a request body.
type Request interface {
	// Target returns the expression and the document expression.
	Target() (query, document string)
}

// ReadQuery is the POST /query prelude: it answers 405 to anything but
// POST, the tier's own verdict while draining (draining returns nil when
// serving), and 400 to a body that does not strictly decode into req or
// names no query or document. It reports whether req is ready to serve;
// on false the response is already written.
func ReadQuery(w http.ResponseWriter, r *http.Request, draining func() *Error, req Request) bool {
	if r.Method != http.MethodPost {
		WriteError(w, Errf(http.StatusMethodNotAllowed, CodeBadRequest, "POST only"))
		return false
	}
	if e := draining(); e != nil {
		WriteError(w, e)
		return false
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		WriteError(w, Errf(http.StatusBadRequest, CodeBadRequest, "bad request body: %v", err))
		return false
	}
	if q, d := req.Target(); q == "" || d == "" {
		WriteError(w, Errf(http.StatusBadRequest, CodeBadRequest, "query and document are required"))
		return false
	}
	return true
}

// DocumentParam is the prelude of the POST ?document= endpoints: it answers
// 405 to anything but POST and 400 to a missing name. It returns the name
// and whether to serve it; on false the response is already written.
func DocumentParam(w http.ResponseWriter, r *http.Request) (string, bool) {
	if r.Method != http.MethodPost {
		WriteError(w, Errf(http.StatusMethodNotAllowed, CodeBadRequest, "POST only"))
		return "", false
	}
	name := r.URL.Query().Get("document")
	if name == "" {
		WriteError(w, Errf(http.StatusBadRequest, CodeBadRequest, "missing ?document="))
	}
	return name, name != ""
}

// Timeout resolves a request's timeout_ms: def when absent, capped at
// limit.
func Timeout(ms int64, def, limit time.Duration) time.Duration {
	if ms <= 0 {
		return def
	}
	return min(time.Duration(ms)*time.Millisecond, limit)
}
