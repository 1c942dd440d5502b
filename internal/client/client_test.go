package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"natix/internal/httpapi"
	"natix/internal/server"
)

// envelope writes the service's structured error body.
func envelope(w http.ResponseWriter, status int, code string, retryMS int64) {
	w.Header().Set("Content-Type", "application/json")
	if retryMS > 0 {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	fmt.Fprintf(w, `{"error":{"code":%q,"message":"test","retry_after_ms":%d}}`, code, retryMS)
}

// fastClient returns a client against url with near-zero backoff so retry
// tests run in milliseconds.
func fastClient(url string) *Client {
	c := New(url, 1)
	c.BackoffBase = time.Millisecond
	c.BackoffCap = 5 * time.Millisecond
	return c
}

func TestQueryRetriesTransientThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			envelope(w, http.StatusTooManyRequests, httpapi.CodeOverloaded, 1)
		case 2:
			// Connection drop mid-response: a transport error to the client.
			panic(http.ErrAbortHandler)
		case 3:
			envelope(w, http.StatusServiceUnavailable, httpapi.CodeShuttingDown, 1)
		default:
			json.NewEncoder(w).Encode(server.QueryResponse{Document: "d", Generation: 1})
		}
	}))
	defer ts.Close()

	resp, err := fastClient(ts.URL).Query(context.Background(), &server.QueryRequest{Query: "/r", Document: "d"})
	if err != nil {
		t.Fatalf("query after transients: %v", err)
	}
	if resp.Document != "d" {
		t.Fatalf("resp = %+v", resp)
	}
	if calls.Load() != 4 {
		t.Fatalf("calls = %d, want 4 (429, drop, 503, ok)", calls.Load())
	}
}

func TestQueryDoesNotRetryPermanentErrors(t *testing.T) {
	cases := []struct {
		name   string
		status int
		code   string
		check  func(error) bool
	}{
		{"parse error", http.StatusBadRequest, httpapi.CodeParseError, IsParse},
		{"limit", http.StatusUnprocessableEntity, httpapi.CodeLimit, IsLimit},
		{"unknown document", http.StatusNotFound, httpapi.CodeUnknownDoc, IsUnknownDocument},
		{"server timeout", http.StatusGatewayTimeout, httpapi.CodeTimeout, IsTimeout},
		{"quarantine", http.StatusServiceUnavailable, httpapi.CodeStoreFault, IsStoreFault},
		{"internal", http.StatusInternalServerError, httpapi.CodeInternal, func(err error) bool {
			var e *Error
			return errors.As(err, &e) && e.Code == httpapi.CodeInternal
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				envelope(w, tc.status, tc.code, 0)
			}))
			defer ts.Close()
			_, err := fastClient(ts.URL).Query(context.Background(), &server.QueryRequest{Query: "/r", Document: "d"})
			if err == nil {
				t.Fatal("no error")
			}
			if !tc.check(err) {
				t.Fatalf("classification failed for %v", err)
			}
			if calls.Load() != 1 {
				t.Fatalf("calls = %d: a permanent %s was retried", calls.Load(), tc.code)
			}
			var e *Error
			if !errors.As(err, &e) || e.Status != tc.status || e.Attempts != 1 {
				t.Fatalf("envelope: %+v", e)
			}
		})
	}
}

func TestRetriesExhaust(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		envelope(w, http.StatusTooManyRequests, httpapi.CodeOverloaded, 1)
	}))
	defer ts.Close()
	c := fastClient(ts.URL)
	c.MaxRetries = 3
	_, err := c.Query(context.Background(), &server.QueryRequest{Query: "/r", Document: "d"})
	if !IsOverload(err) {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 4 {
		t.Fatalf("calls = %d, want 1 + 3 retries", calls.Load())
	}
	var e *Error
	if !errors.As(err, &e) || e.Attempts != 4 {
		t.Fatalf("attempts = %+v", e)
	}
}

func TestRetryAfterHonored(t *testing.T) {
	const hintMS = 80
	var calls atomic.Int64
	var gap atomic.Int64
	var last atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now().UnixNano()
		if prev := last.Swap(now); prev != 0 {
			gap.Store(now - prev)
		}
		if calls.Add(1) == 1 {
			envelope(w, http.StatusServiceUnavailable, httpapi.CodeOverloaded, hintMS)
			return
		}
		json.NewEncoder(w).Encode(server.QueryResponse{})
	}))
	defer ts.Close()
	c := fastClient(ts.URL)
	c.BackoffCap = time.Second // leave room above the hint
	if _, err := c.Query(context.Background(), &server.QueryRequest{Query: "/r", Document: "d"}); err != nil {
		t.Fatal(err)
	}
	if got := time.Duration(gap.Load()); got < hintMS*time.Millisecond {
		t.Fatalf("retried after %v, before the server's %dms hint", got, hintMS)
	}
}

func TestRetryAfterHeaderFallback(t *testing.T) {
	// No envelope at all (a proxy's bare 503) — the header is still decoded.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, "upstream unavailable")
	}))
	defer ts.Close()
	c := fastClient(ts.URL)
	c.MaxRetries = 0
	_, err := c.Query(context.Background(), &server.QueryRequest{Query: "/r", Document: "d"})
	var e *Error
	if !errors.As(err, &e) {
		t.Fatalf("err = %v", err)
	}
	if e.Code != "http_503" || e.RetryAfter != 7*time.Second {
		t.Fatalf("decoded %+v", e)
	}
}

func TestDeadlinePropagation(t *testing.T) {
	// The server stalls past the caller's deadline; the client must give up
	// with a context error, not hang and not retry past the deadline.
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Consume the body so the server's background read can notice the
		// client abort; stall until the client gives up.
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer ts.Close()
	defer close(release) // unblock the handler before ts.Close waits on it
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := fastClient(ts.URL).Query(ctx, &server.QueryRequest{Query: "/r", Document: "d"})
	if err == nil {
		t.Fatal("no error")
	}
	if !errors.Is(err, context.DeadlineExceeded) && !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("err = %v, want a deadline error", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("gave up after %v; deadline was 50ms", elapsed)
	}
}

func TestBackoffRefusesSleepPastDeadline(t *testing.T) {
	// A retry whose backoff cannot finish before the deadline fails fast.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		envelope(w, http.StatusServiceUnavailable, httpapi.CodeOverloaded, 10_000)
	}))
	defer ts.Close()
	c := fastClient(ts.URL)
	c.BackoffCap = 30 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Query(ctx, &server.QueryRequest{Query: "/r", Document: "d"})
	if err == nil {
		t.Fatal("no error")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("slept %v toward a 10s hint under a 200ms deadline", elapsed)
	}
}

func TestReloadNeverRetries(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		envelope(w, http.StatusServiceUnavailable, httpapi.CodeOverloaded, 1)
	}))
	defer ts.Close()
	_, err := fastClient(ts.URL).Reload(context.Background(), "d")
	if err == nil {
		t.Fatal("no error")
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d: Reload retried a mutation", calls.Load())
	}
}

func TestDocumentsAndProbes(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/documents":
			fmt.Fprint(w, `{"documents":[{"name":"d","backend":"store","generation":3,"nodes":42}]}`)
		case "/healthz/live":
			fmt.Fprint(w, `{"status":"alive","uptime_ms":5}`)
		case "/healthz/ready":
			envelope(w, http.StatusServiceUnavailable, httpapi.CodeOverloaded, 0)
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()
	c := fastClient(ts.URL)
	docs, err := c.Documents(context.Background())
	if err != nil || len(docs) != 1 || docs[0].Name != "d" || docs[0].Generation != 3 {
		t.Fatalf("documents = %+v, %v", docs, err)
	}
	h, err := c.Live(context.Background())
	if err != nil || h.Status != "alive" {
		t.Fatalf("live = %+v, %v", h, err)
	}
	// Ready is single-shot: the 503 comes straight back as a typed error.
	if _, err := c.Ready(context.Background()); !IsOverload(err) {
		t.Fatalf("ready err = %v", err)
	}
}

func TestRetryableClassification(t *testing.T) {
	mk := func(status int, code string) error {
		return &Error{Status: status, Code: code}
	}
	cases := []struct {
		err  error
		want bool
	}{
		{mk(http.StatusTooManyRequests, httpapi.CodeOverloaded), true},
		{mk(http.StatusServiceUnavailable, httpapi.CodeShuttingDown), true},
		{mk(http.StatusServiceUnavailable, "injected_fault"), true},
		{mk(http.StatusServiceUnavailable, httpapi.CodeStoreFault), false}, // quarantine is sticky
		{mk(http.StatusGatewayTimeout, httpapi.CodeTimeout), false},
		{mk(http.StatusBadGateway, "http_502"), true},
		{mk(http.StatusBadRequest, httpapi.CodeParseError), false},
		{mk(http.StatusInternalServerError, httpapi.CodeInternal), false},
		{errors.New("read: connection reset by peer"), true},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{nil, false},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestDeterministicJitter(t *testing.T) {
	a, b := New("http://x", 42), New("http://x", 42)
	for i := 0; i < 10; i++ {
		if a.jitter(time.Second) != b.jitter(time.Second) {
			t.Fatal("same seed produced different jitter sequences")
		}
	}
}

// TestQueryReusesBodyBuffer: after the first Query, a Query reads its body
// into a pooled buffer instead of allocating one, and an answer already
// decoded survives the buffer's reuse.
func TestQueryReusesBodyBuffer(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		v := fmt.Sprintf("answer-%06d", calls.Add(1))
		json.NewEncoder(w).Encode(server.QueryResponse{Document: "d", Result: server.QueryResult{
			Kind: "node-set", Count: 1, Nodes: []server.QueryNode{{Kind: "element", Name: "e", Value: v}},
		}})
	}))
	defer ts.Close()
	var made atomic.Int64
	newBuffer := bodyPool.New
	bodyPool.New = func() any {
		made.Add(1)
		return newBuffer()
	}
	defer func() { bodyPool.New = newBuffer }()

	c := New(ts.URL, 1)
	query := func() *server.QueryResponse {
		resp, err := c.Query(context.Background(), &server.QueryRequest{Query: "//e", Document: "d"})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first := query()
	// The least of several one-query samples: the race detector drops
	// pooled objects at random, which only ever adds buffers.
	least := int64(-1)
	for i := 0; i < 21 && least != 0; i++ {
		before := made.Load()
		query()
		if n := made.Load() - before; least < 0 || n < least {
			least = n
		}
	}
	if least != 0 {
		t.Errorf("every later Query allocated a body buffer (least %d)", least)
	}
	if got := first.Result.Nodes[0].Value; got != "answer-000001" {
		t.Errorf("first answer changed under buffer reuse: %q", got)
	}
}

// TestBodyPoolDropsLargeBuffers: a buffer grown past maxPooledBody is left
// to the collector, not pooled.
func TestBodyPoolDropsLargeBuffers(t *testing.T) {
	big := bytes.NewBuffer(make([]byte, 0, maxPooledBody+1))
	putBody(big)
	for i := 0; i < 8; i++ {
		if getBody() == big {
			t.Fatal("a buffer over maxPooledBody came back from the pool")
		}
	}
}
