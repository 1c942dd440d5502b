// Package client is the Go client for natix-serve: typed decoding of the
// service's error envelope, deadline propagation, and retries with
// exponential backoff and full jitter for transient failures.
//
// The retry contract mirrors the server's failure model (DESIGN.md
// "Failure model"): only idempotent reads retry — Query (evaluation is
// side-effect free), Documents, Health and Ready — and only on transient
// failures: transport errors (connection drops, torn responses) and
// backpressure statuses (429, 503 except a quarantine verdict, 502, 504
// from intermediaries). Retry-After is honored from the machine-readable
// retry_after_ms envelope field first, the coarse Retry-After header
// second, capped by the backoff ceiling; everything is bounded by the
// caller's context deadline. Reload never retries: it mutates serving
// state, and the caller must decide whether a reported failure actually
// installed a generation.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"natix/internal/httpapi"
	"natix/internal/server"
)

// Error is the typed form of the service's structured error envelope.
type Error struct {
	// Status is the HTTP status the envelope arrived with.
	Status int
	// Code is the machine-readable envelope code (httpapi.Code*, or
	// "injected_fault" from a chaos plan).
	Code string
	// Message is the human-readable envelope message.
	Message string
	// RetryAfter is the server's backoff hint (zero when absent).
	RetryAfter time.Duration
	// Attempts is how many attempts the client made before giving up.
	Attempts int
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("natix-serve: %s (%d): %s", e.Code, e.Status, e.Message)
}

// Typed classification helpers: each reports whether err is a service
// error of the given family.

// IsParse reports an expression that did not compile.
func IsParse(err error) bool { return hasCode(err, httpapi.CodeParseError) }

// IsLimit reports a tripped resource budget.
func IsLimit(err error) bool { return hasCode(err, httpapi.CodeLimit) }

// IsTimeout reports a deadline exceeded server-side.
func IsTimeout(err error) bool { return hasCode(err, httpapi.CodeTimeout) }

// IsStoreFault reports document I/O failure, corruption or quarantine.
func IsStoreFault(err error) bool { return hasCode(err, httpapi.CodeStoreFault) }

// IsOverload reports admission rejection: a full queue or a drain.
func IsOverload(err error) bool {
	return hasCode(err, httpapi.CodeOverloaded) || hasCode(err, httpapi.CodeShuttingDown)
}

// IsUnknownDocument reports a name the catalog does not serve.
func IsUnknownDocument(err error) bool { return hasCode(err, httpapi.CodeUnknownDoc) }

func hasCode(err error, code string) bool {
	var e *Error
	return errors.As(err, &e) && e.Code == code
}

// Retryable reports whether err is transient: a transport failure or a
// backpressure status on an idempotent read. The client consults it
// internally; callers running their own retry loops can too.
func Retryable(err error) bool {
	var e *Error
	if !errors.As(err, &e) {
		// Not an envelope: a transport-level failure (connection dropped,
		// torn body). The request may have executed, but reads are
		// idempotent, so retrying is safe.
		return err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
	}
	switch e.Status {
	case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusGatewayTimeout:
		return e.Code != httpapi.CodeTimeout // a server-side deadline will just trip again
	case http.StatusServiceUnavailable:
		// Drain and injected faults are transient;
		// quarantine is sticky until an operator reloads.
		return e.Code != httpapi.CodeStoreFault
	}
	return false
}

// Client calls one natix-serve instance. The zero value is unusable; use
// New. Safe for concurrent use.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8321".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// MaxRetries bounds retry attempts beyond the first try (default 4;
	// negative disables retries).
	MaxRetries int
	// BackoffBase is the first backoff ceiling; attempt n draws uniformly
	// from [0, min(BackoffCap, BackoffBase<<n)] — "full jitter"
	// (default 25ms).
	BackoffBase time.Duration
	// BackoffCap caps the backoff ceiling and any server Retry-After hint
	// (default 2s).
	BackoffCap time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// New returns a client for the service at baseURL with the documented
// defaults and a jitter source seeded from seed (deterministic soaks pass
// distinct per-worker seeds).
func New(baseURL string, seed int64) *Client {
	return &Client{
		BaseURL:     baseURL,
		HTTPClient:  http.DefaultClient,
		MaxRetries:  4,
		BackoffBase: 25 * time.Millisecond,
		BackoffCap:  2 * time.Second,
		rng:         rand.New(rand.NewSource(seed)),
	}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// jitter draws uniformly from [0, d).
func (c *Client) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(1))
	}
	return time.Duration(c.rng.Int63n(int64(d)))
}

// backoff computes the sleep before retry attempt (1-based): the server's
// hint when it gave one, full jitter under the exponential ceiling
// otherwise — and never past the context deadline (a sleep that cannot end
// before the deadline fails fast instead).
func (c *Client) backoff(ctx context.Context, attempt int, lastErr error) (time.Duration, error) {
	base, cap := c.BackoffBase, c.BackoffCap
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	if cap <= 0 {
		cap = 2 * time.Second
	}
	ceil := base << (attempt - 1)
	if ceil > cap || ceil <= 0 {
		ceil = cap
	}
	var d time.Duration
	var e *Error
	if errors.As(lastErr, &e) && e.RetryAfter > 0 {
		// Honor the server's hint, plus jitter so a fleet of clients told
		// "250ms" does not stampede back in lockstep.
		d = e.RetryAfter + c.jitter(ceil)
		if d > cap {
			d = cap
		}
	} else {
		d = c.jitter(ceil)
	}
	if dl, ok := ctx.Deadline(); ok && time.Now().Add(d).After(dl) {
		return 0, fmt.Errorf("natix-serve: deadline would expire before retry: %w", lastErr)
	}
	return d, nil
}

// do runs one HTTP exchange and decodes the envelope. out may be nil.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf := getBody()
	defer putBody(buf)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	data := buf.Bytes()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("natix-serve: bad response body: %w", err)
		}
	}
	return nil
}

// bodyPool recycles response-body buffers across calls. A buffer may go
// back once decoding is done because nothing decoded aliases it:
// encoding/json copies every string it stores, and so does
// server.QueryResult's own decoder.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody is the largest buffer put back: one huge answer must not
// pin its buffer for the life of the process.
const maxPooledBody = 1 << 20

func getBody() *bytes.Buffer {
	b := bodyPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBody(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBody {
		bodyPool.Put(b)
	}
}

// decodeError turns a non-200 response into a typed *Error.
func decodeError(resp *http.Response, data []byte) error {
	e := &Error{Status: resp.StatusCode}
	var env httpapi.Envelope
	if err := json.Unmarshal(data, &env); err == nil && env.Error != nil && env.Error.Code != "" {
		e.Code = env.Error.Code
		e.Message = env.Error.Message
		if env.Error.RetryAfterMS > 0 {
			e.RetryAfter = time.Duration(env.Error.RetryAfterMS) * time.Millisecond
		}
	} else {
		e.Code = "http_" + strconv.Itoa(resp.StatusCode)
		e.Message = string(data)
	}
	if e.RetryAfter == 0 {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
				e.RetryAfter = time.Duration(secs) * time.Second
			}
		}
	}
	return e
}

// retry runs op with the client's retry policy. Only call it for
// idempotent reads.
func (c *Client) retry(ctx context.Context, op func() error) error {
	attempts := 0
	for {
		attempts++
		err := op()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return fmt.Errorf("natix-serve: %w", ctx.Err())
		}
		if attempts > c.MaxRetries || !Retryable(err) {
			var e *Error
			if errors.As(err, &e) {
				e.Attempts = attempts
			}
			return err
		}
		d, berr := c.backoff(ctx, attempts, err)
		if berr != nil {
			return berr
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return fmt.Errorf("natix-serve: %w", ctx.Err())
		}
	}
}

// Query evaluates req against the service, retrying transient failures —
// evaluation is an idempotent read, so a retried request can at worst
// recompute the same answer.
func (c *Client) Query(ctx context.Context, req *server.QueryRequest) (*server.QueryResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var resp server.QueryResponse
	err = c.retry(ctx, func() error {
		resp = server.QueryResponse{}
		return c.do(ctx, http.MethodPost, "/query", body, &resp)
	})
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Documents lists the catalog, retrying transient failures.
func (c *Client) Documents(ctx context.Context) ([]DocumentInfo, error) {
	var resp struct {
		Documents []DocumentInfo `json:"documents"`
	}
	err := c.retry(ctx, func() error {
		resp.Documents = nil
		return c.do(ctx, http.MethodGet, "/documents", nil, &resp)
	})
	if err != nil {
		return nil, err
	}
	return resp.Documents, nil
}

// DocumentInfo is one catalog listing entry.
type DocumentInfo struct {
	Name       string `json:"name"`
	Backend    string `json:"backend"`
	Path       string `json:"path,omitempty"`
	Generation uint64 `json:"generation"`
	Nodes      int    `json:"nodes"`
	Refs       int    `json:"refs"`
	Retired    int    `json:"retired_generations,omitempty"`
}

// Health is a liveness/readiness probe answer.
type Health struct {
	Status   string `json:"status"`
	State    string `json:"state,omitempty"`
	UptimeMS int64  `json:"uptime_ms"`
}

// Live probes /healthz/live, retrying transient failures.
func (c *Client) Live(ctx context.Context) (*Health, error) {
	var h Health
	if err := c.retry(ctx, func() error {
		return c.do(ctx, http.MethodGet, "/healthz/live", nil, &h)
	}); err != nil {
		return nil, err
	}
	return &h, nil
}

// Ready probes /healthz/ready once, without retries: the caller is asking
// "now?", and a 503 is itself the answer (inspect the returned *Error's
// Message for the state).
func (c *Client) Ready(ctx context.Context) (*Health, error) {
	var h Health
	if err := c.do(ctx, http.MethodGet, "/healthz/ready", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// ReloadResult reports a successful reload: the generation now serving.
type ReloadResult struct {
	Document   string `json:"document"`
	Generation uint64 `json:"generation"`
}

// Reload reloads a document. It never retries: reload mutates serving
// state, and after a transport failure the caller cannot know whether the
// new generation installed — re-issuing must be the caller's informed
// decision.
func (c *Client) Reload(ctx context.Context, document string) (*ReloadResult, error) {
	var r ReloadResult
	path := "/reload?document=" + url.QueryEscape(document)
	if err := c.do(ctx, http.MethodPost, path, nil, &r); err != nil {
		return nil, err
	}
	return &r, nil
}
