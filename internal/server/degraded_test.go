package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"natix/internal/catalog"
	"natix/internal/dom"
	"natix/internal/httpapi"
	"natix/internal/store"
)

// retryEnvelope decodes the full error envelope including the retry hint.
func retryEnvelope(t *testing.T, data []byte) (code string, retryMS int64) {
	t.Helper()
	var env struct {
		Error struct {
			Code         string `json:"code"`
			RetryAfterMS int64  `json:"retry_after_ms"`
		} `json:"error"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("decode envelope %s: %v", data, err)
	}
	return env.Error.Code, env.Error.RetryAfterMS
}

// longQuery is a valid expression past the 192-byte uncached high-cost
// threshold.
var longQuery = "//x[" + strings.Repeat("1 = 1 and ", 20) + "1 = 1]"

// TestDegradedShedsByCostClass forces the server into the degraded state and
// checks the shedding order: high-cost queries are 429'd outright, low-cost
// queries still run until the shrunk queue fills, and both rejections carry
// the machine-readable retry hint.
func TestDegradedShedsByCostClass(t *testing.T) {
	if len(longQuery) < 192 {
		t.Fatalf("longQuery only %d bytes", len(longQuery))
	}
	cat := catalog.New()
	if err := cat.OpenMem("d", strings.NewReader(heavyDoc(1500))); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestService(t, Config{
		Catalog:            cat,
		Workers:            1,
		QueueDepth:         8,
		DegradedQueueDepth: 1,
		DegradeFaults:      2,
		EvalWindow:         time.Hour, // no recovery during this test
		DefaultTimeout:     30 * time.Second,
	})

	shedHigh0 := mShed.Value(costHigh)
	shedLow0 := mShed.Value(costLow)

	// Two store faults inside one window cross the threshold immediately.
	s.noteStoreFault("other")
	s.noteStoreFault("other")
	if got := s.State(); got != StateDegraded {
		t.Fatalf("state after faults = %v, want degraded", got)
	}

	// High-cost queries are shed before touching the queue.
	status, data := postQuery(t, ts, QueryRequest{Query: longQuery, Document: "d"})
	if status != http.StatusTooManyRequests {
		t.Fatalf("high-cost while degraded: %d %s", status, data)
	}
	if code, retry := retryEnvelope(t, data); code != httpapi.CodeOverloaded || retry <= 0 {
		t.Fatalf("high-cost envelope: code=%s retry_after_ms=%d", code, retry)
	}
	if got := mShed.Value(costHigh) - shedHigh0; got != 1 {
		t.Fatalf("shed{high} = %d, want 1", got)
	}

	// A low-cost query still runs while the shrunk queue has room.
	status, data = postQuery(t, ts, QueryRequest{Query: "count(//x)", Document: "d"})
	if status != http.StatusOK {
		t.Fatalf("low-cost while degraded: %d %s", status, data)
	}

	// Fill the worker and the shrunk queue with heavy low-cost queries, then
	// the next low-cost query must be shed too. The two differ semantically,
	// so they occupy a worker and a queue slot each instead of coalescing.
	// The first takes the worker, the second the queue. Each is sent once
	// the one before has its place, so that neither is shed for finding
	// the other still in the queue on its way to the worker.
	exec0 := s.Counters().Executed
	release := make(chan int, 2)
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < 2; i++ {
		go func() {
			st, _ := postQuery(t, ts, QueryRequest{Query: distinctHeavyQuery(i), Document: "d"})
			release <- st
		}()
		for s.Counters().Executed == exec0 || len(s.jobs) < i {
			if time.Now().After(deadline) {
				t.Fatal("worker and queue never filled")
			}
			time.Sleep(time.Millisecond)
		}
	}
	status, data = postQuery(t, ts, QueryRequest{Query: "count(//x)", Document: "d"})
	if status != http.StatusTooManyRequests {
		t.Fatalf("low-cost over shrunk queue: %d %s", status, data)
	}
	if code, retry := retryEnvelope(t, data); code != httpapi.CodeOverloaded || retry <= 0 {
		t.Fatalf("low-cost envelope: code=%s retry_after_ms=%d", code, retry)
	}
	if got := mShed.Value(costLow) - shedLow0; got < 1 {
		t.Fatalf("shed{low} = %d, want >= 1", got)
	}
	for i := 0; i < 2; i++ {
		if st := <-release; st != http.StatusOK {
			t.Errorf("occupying query finished with %d", st)
		}
	}
}

// TestDegradedRecoversAfterQuietWindow degrades the server, watches the
// readiness probe flip, and checks one quiet evaluation window restores
// healthy serving.
func TestDegradedRecoversAfterQuietWindow(t *testing.T) {
	cat := catalog.New()
	if err := cat.OpenMem("d", strings.NewReader("<r><x>1</x></r>")); err != nil {
		t.Fatal(err)
	}
	const window = 100 * time.Millisecond
	s, ts := newTestService(t, Config{
		Catalog:       cat,
		DegradeFaults: 1,
		EvalWindow:    window,
	})

	ready := func() (int, string) {
		resp, err := ts.Client().Get(ts.URL + "/healthz/ready")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Status string `json:"status"`
		}
		json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body.Status
	}
	if code, st := ready(); code != http.StatusOK || st != "healthy" {
		t.Fatalf("ready while healthy: %d %s", code, st)
	}
	liveResp, err := ts.Client().Get(ts.URL + "/healthz/live")
	if err != nil {
		t.Fatal(err)
	}
	liveResp.Body.Close()
	if liveResp.StatusCode != http.StatusOK {
		t.Fatalf("live = %d", liveResp.StatusCode)
	}

	s.noteStoreFault("d")
	if s.State() != StateDegraded {
		t.Fatal("single fault at threshold 1 did not degrade")
	}
	if code, st := ready(); code != http.StatusServiceUnavailable || st != "degraded" {
		t.Fatalf("ready while degraded: %d %s", code, st)
	}
	// Liveness is unaffected by the state machine.
	liveResp, err = ts.Client().Get(ts.URL + "/healthz/live")
	if err != nil {
		t.Fatal(err)
	}
	liveResp.Body.Close()
	if liveResp.StatusCode != http.StatusOK {
		t.Fatalf("live while degraded = %d", liveResp.StatusCode)
	}

	// With no further faults the server must return to healthy after one
	// quiet window (two ticks at most: one to flush the tripped window, one
	// quiet). Allow generous wall-clock slack, but bound it.
	start := time.Now()
	deadline := start.Add(20 * window)
	for s.State() != StateHealthy {
		if time.Now().After(deadline) {
			t.Fatalf("still %v after %v", s.State(), time.Since(start))
		}
		time.Sleep(window / 10)
	}
	if code, st := ready(); code != http.StatusOK || st != "healthy" {
		t.Fatalf("ready after recovery: %d %s", code, st)
	}
	// Normal serving resumed.
	if status, data := postQuery(t, ts, QueryRequest{Query: "string(/r/x)", Document: "d"}); status != http.StatusOK {
		t.Fatalf("query after recovery: %d %s", status, data)
	}
}

// TestQuarantineEndToEnd drives a store-backed document through real
// injected read faults: repeated failing queries quarantine it (fast-path
// 503 store_fault without burning a worker), and a successful reload lifts
// the quarantine.
func TestQuarantineEndToEnd(t *testing.T) {
	memDoc, err := dom.ParseString(heavyDoc(2000))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.natix")
	if err := store.Write(path, memDoc); err != nil {
		t.Fatal(err)
	}
	var faulting atomic.Bool
	boom := fmt.Errorf("disk on fire")
	cat := catalog.New()
	cat.OpenHook = func(p string, opt store.Options) (*store.Doc, error) {
		d, _, err := store.OpenFaulty(p, opt, func(off int64, length int) error {
			if faulting.Load() {
				return boom
			}
			return nil
		})
		return d, err
	}
	if err := cat.OpenStore("d", path, store.Options{BufferPages: 2}); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestService(t, Config{
		Catalog:         cat,
		QuarantineAfter: 3,
		DegradeFaults:   1000, // isolate quarantining from degradation
		EvalWindow:      time.Hour,
	})

	// Healthy first: the document serves.
	if status, data := postQuery(t, ts, QueryRequest{Query: "count(//x)", Document: "d"}); status != http.StatusOK {
		t.Fatalf("pre-fault query: %d %s", status, data)
	}

	faulting.Store(true)
	quarHits0 := mQuarHits.Value()
	// Three consecutive store faults quarantine the document. Each query
	// reaches a worker and fails against the faulting medium (500).
	for i := 0; i < s.cfg.QuarantineAfter; i++ {
		status, data := postQuery(t, ts, QueryRequest{Query: "//x[@n > 1]", Document: "d"})
		if status != http.StatusInternalServerError || errCode(t, data) != httpapi.CodeStoreFault {
			t.Fatalf("fault %d: %d %s", i, status, data)
		}
	}
	if !s.isQuarantined("d") {
		t.Fatal("document not quarantined after consecutive faults")
	}
	// Quarantined: the fast path answers without touching the store.
	status, data := postQuery(t, ts, QueryRequest{Query: "count(//x)", Document: "d"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("quarantined query: %d %s", status, data)
	}
	if code, retry := retryEnvelope(t, data); code != httpapi.CodeStoreFault || retry <= 0 {
		t.Fatalf("quarantine envelope: code=%s retry_after_ms=%d", code, retry)
	}
	if mQuarHits.Value() == quarHits0 {
		t.Fatal("quarantine fast-path counter did not move")
	}

	// The medium recovers; a reload restores service.
	faulting.Store(false)
	resp, err := ts.Client().Post(ts.URL+"/reload?document=d", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload after recovery: %d", resp.StatusCode)
	}
	if s.isQuarantined("d") {
		t.Fatal("quarantine survived a successful reload")
	}
	if status, data := postQuery(t, ts, QueryRequest{Query: "count(//x)", Document: "d"}); status != http.StatusOK {
		t.Fatalf("post-reload query: %d %s", status, data)
	}
}

// TestReloadFailureKeepsQuarantine checks a failed reload does not lift a
// quarantine: the document stays parked until a reload actually succeeds.
func TestReloadFailureKeepsQuarantine(t *testing.T) {
	memDoc, err := dom.ParseString("<r><x>1</x></r>")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.natix")
	if err := store.Write(path, memDoc); err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	if err := cat.OpenStore("d", path, store.Options{}); err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("boom")
	cat.ReloadHook = func(name string, p catalog.ReloadPoint) error { return boom }
	s, ts := newTestService(t, Config{Catalog: cat, EvalWindow: time.Hour})

	for i := 0; i < s.cfg.QuarantineAfter; i++ {
		s.noteStoreFault("d")
	}
	if !s.isQuarantined("d") {
		t.Fatal("not quarantined")
	}
	resp, err := ts.Client().Post(ts.URL+"/reload?document=d", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed reload status = %d", resp.StatusCode)
	}
	if !s.isQuarantined("d") {
		t.Fatal("failed reload lifted the quarantine")
	}
}

// TestDrainRetryContract checks the drain-path 503 carries both forms of the
// retry hint: the Retry-After header and the envelope's retry_after_ms.
func TestDrainRetryContract(t *testing.T) {
	cat := catalog.New()
	if err := cat.OpenMem("d", strings.NewReader("<r/>")); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestService(t, Config{Catalog: cat})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	req, err := json.Marshal(QueryRequest{Query: "/r", Document: "d"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/query", "application/json", strings.NewReader(string(req)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drain query = %d", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 without Retry-After header")
	}
	var env struct {
		Error struct {
			Code         string `json:"code"`
			RetryAfterMS int64  `json:"retry_after_ms"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != httpapi.CodeShuttingDown || env.Error.RetryAfterMS <= 0 {
		t.Fatalf("drain envelope: %+v", env.Error)
	}
	if s.State() != StateDraining {
		t.Fatalf("state = %v", s.State())
	}
	// /metrics exports the state gauge at the draining value.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	found := false
	for _, line := range bufioLines(t, mresp.Body) {
		if line == fmt.Sprintf("natix_serve_state %d", StateDraining) {
			found = true
		}
	}
	if !found {
		t.Error("natix_serve_state gauge not exported at draining value")
	}
}
