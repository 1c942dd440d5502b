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
	s, ts := newTestService(t, Config{Catalog: cat})

	// Healthy first: the document serves.
	if status, data := postQuery(t, ts, QueryRequest{Query: "count(//x)", Document: "d"}); status != http.StatusOK {
		t.Fatalf("pre-fault query: %d %s", status, data)
	}

	faulting.Store(true)
	quarHits0 := mQuarHits.Value()
	// Three consecutive store faults quarantine the document. Each query
	// reaches a worker and fails against the faulting medium (500).
	for i := 0; i < quarantineAfter; i++ {
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
	s, ts := newTestService(t, Config{Catalog: cat})

	for i := 0; i < quarantineAfter; i++ {
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
