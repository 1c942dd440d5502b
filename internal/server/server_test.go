package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"natix"
	"natix/internal/catalog"
	"natix/internal/dom"
	"natix/internal/httpapi"
	"natix/internal/metrics"
	"natix/internal/plancache"
	"natix/internal/store"
)

func newTestService(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Catalog == nil {
		cfg.Catalog = catalog.New()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		cfg.Catalog.CloseAll()
	})
	return s, ts
}

func postQuery(t *testing.T, ts *httptest.Server, req QueryRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func decodeQuery(t *testing.T, data []byte) *QueryResponse {
	t.Helper()
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
	return &qr
}

func errCode(t *testing.T, data []byte) string {
	t.Helper()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("decode error envelope %s: %v", data, err)
	}
	if env.Error.Code == "" {
		t.Fatalf("error envelope missing code: %s", data)
	}
	return env.Error.Code
}

func TestQueryEndpoint(t *testing.T) {
	cat := catalog.New()
	if err := cat.OpenMem("books", strings.NewReader(
		`<lib><book id="1"><title>Algebra</title></book><book id="2"><title>XPath</title></book></lib>`)); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestService(t, Config{Catalog: cat, Cache: plancache.New(16, 0)})

	status, data := postQuery(t, ts, QueryRequest{Query: "//book/title", Document: "books"})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	qr := decodeQuery(t, data)
	if qr.Result.Kind != "node-set" || qr.Result.Count != 2 || len(qr.Result.Nodes) != 2 {
		t.Fatalf("result = %+v", qr.Result)
	}
	if qr.Result.Nodes[0].Kind != "element" || qr.Result.Nodes[0].Name != "title" || qr.Result.Nodes[0].Value != "Algebra" {
		t.Fatalf("node = %+v", qr.Result.Nodes[0])
	}
	if qr.Cached {
		t.Fatal("first request claimed a cache hit")
	}
	if qr.Generation != 1 || qr.Document != "books" {
		t.Fatalf("meta = %+v", qr)
	}

	// The second run of the same query must be answered from the plan cache.
	status, data = postQuery(t, ts, QueryRequest{Query: "//book/title", Document: "books"})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	if qr := decodeQuery(t, data); !qr.Cached {
		t.Fatal("second request missed the plan cache")
	}

	// Scalar results come back typed, not as node lists.
	status, data = postQuery(t, ts, QueryRequest{Query: "count(//book)", Document: "books"})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	if qr := decodeQuery(t, data); qr.Result.Kind != "number" || qr.Result.Number == nil || *qr.Result.Number != 2 {
		t.Fatalf("count result = %+v", qr.Result)
	}
	_, data = postQuery(t, ts, QueryRequest{Query: "count(//book) > 1", Document: "books"})
	if qr := decodeQuery(t, data); qr.Result.Kind != "boolean" || qr.Result.Boolean == nil || !*qr.Result.Boolean {
		t.Fatalf("boolean result = %+v", qr.Result)
	}
	_, data = postQuery(t, ts, QueryRequest{Query: "string(//title)", Document: "books"})
	if qr := decodeQuery(t, data); qr.Result.Kind != "string" || qr.Result.String == nil || *qr.Result.String != "Algebra" {
		t.Fatalf("string result = %+v", qr.Result)
	}

	// Attribute nodes carry name and value.
	_, data = postQuery(t, ts, QueryRequest{Query: "//book/@id", Document: "books"})
	if qr := decodeQuery(t, data); len(qr.Result.Nodes) != 2 || qr.Result.Nodes[0].Kind != "attribute" || qr.Result.Nodes[0].Value != "1" {
		t.Fatalf("attribute result = %+v", decodeQuery(t, data).Result)
	}
}

func TestQueryValidation(t *testing.T) {
	cat := catalog.New()
	if err := cat.OpenMem("d", strings.NewReader("<r/>")); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestService(t, Config{Catalog: cat})

	cases := []struct {
		name   string
		req    QueryRequest
		status int
		code   string
	}{
		{"missing query", QueryRequest{Document: "d"}, http.StatusBadRequest, httpapi.CodeBadRequest},
		{"missing document", QueryRequest{Query: "/r"}, http.StatusBadRequest, httpapi.CodeBadRequest},
		{"unknown mode", QueryRequest{Query: "/r", Document: "d", Mode: "turbo"}, http.StatusBadRequest, httpapi.CodeBadRequest},
		{"unknown document", QueryRequest{Query: "/r", Document: "nope"}, http.StatusNotFound, httpapi.CodeUnknownDoc},
		{"parse error", QueryRequest{Query: "][", Document: "d"}, http.StatusBadRequest, httpapi.CodeParseError},
	}
	for _, tc := range cases {
		status, data := postQuery(t, ts, tc.req)
		if status != tc.status || errCode(t, data) != tc.code {
			t.Errorf("%s: got %d %s, want %d %s", tc.name, status, data, tc.status, tc.code)
		}
	}

	// Unknown JSON fields are rejected, not silently dropped.
	resp, err := ts.Client().Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"query":"/r","document":"d","tymeout_ms":5}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || errCode(t, data) != httpapi.CodeBadRequest {
		t.Fatalf("unknown field: %d %s", resp.StatusCode, data)
	}

	// GET /query is not a thing.
	resp, err = ts.Client().Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query = %d", resp.StatusCode)
	}
}

func TestLimitErrorIsStructured(t *testing.T) {
	cat := catalog.New()
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 200; i++ {
		sb.WriteString("<x/>")
	}
	sb.WriteString("</r>")
	if err := cat.OpenMem("d", strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestService(t, Config{Catalog: cat, Limits: natix.Limits{MaxTuples: 10}})

	status, data := postQuery(t, ts, QueryRequest{Query: "//x", Document: "d"})
	if status != http.StatusUnprocessableEntity || errCode(t, data) != httpapi.CodeLimit {
		t.Fatalf("limit trip: %d %s", status, data)
	}
}

func TestResultTruncation(t *testing.T) {
	cat := catalog.New()
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 50; i++ {
		sb.WriteString("<x/>")
	}
	sb.WriteString("</r>")
	if err := cat.OpenMem("d", strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestService(t, Config{Catalog: cat, MaxResultNodes: 5})

	_, data := postQuery(t, ts, QueryRequest{Query: "//x", Document: "d"})
	qr := decodeQuery(t, data)
	if !qr.Result.Truncated || len(qr.Result.Nodes) != 5 || qr.Result.Count != 50 {
		t.Fatalf("truncation: %+v", qr.Result)
	}
}

func TestDocumentsAndHealthz(t *testing.T) {
	cat := catalog.New()
	if err := cat.OpenMem("a", strings.NewReader("<r/>")); err != nil {
		t.Fatal(err)
	}
	if err := cat.OpenMem("b", strings.NewReader("<r><x/></r>")); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestService(t, Config{Catalog: cat})

	resp, err := ts.Client().Get(ts.URL + "/documents")
	if err != nil {
		t.Fatal(err)
	}
	var docs struct {
		Documents []catalog.Info `json:"documents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&docs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(docs.Documents) != 2 || docs.Documents[0].Name != "a" || docs.Documents[1].Name != "b" || docs.Documents[1].Nodes == 0 {
		t.Fatalf("documents = %+v", docs.Documents)
	}

	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status    string `json:"status"`
		Documents int    `json:"documents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hz.Status != "ok" || hz.Documents != 2 {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, hz)
	}
}

// TestReloadKeepsPlans: a plan holds nothing per document, so reloads
// invalidate nothing. After each of 8 reloads the cached plan answers from
// the new generation's data, and the cache neither grows nor misses.
func TestReloadKeepsPlans(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(path, []byte("<r>gen1</r>"), 0o644); err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	if err := cat.OpenMemFile("d", path); err != nil {
		t.Fatal(err)
	}
	cache := plancache.New(16, 0)
	_, ts := newTestService(t, Config{Catalog: cat, Cache: cache})

	_, data := postQuery(t, ts, QueryRequest{Query: "string(/r)", Document: "d"})
	if qr := decodeQuery(t, data); *qr.Result.String != "gen1" || qr.Generation != 1 || qr.Cached {
		t.Fatalf("pre-reload: %+v", qr)
	}
	entries, misses := cache.Len(), cache.Stats().Misses

	for gen := uint64(2); gen <= 9; gen++ {
		want := fmt.Sprintf("gen%d", gen)
		if err := os.WriteFile(path, []byte("<r>"+want+"</r>"), 0o644); err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+"/reload?document=d", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var rl map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&rl); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(rl) != 2 || rl["document"] != "d" || rl["generation"] != float64(gen) {
			t.Fatalf("reload = %v, want only document and generation %d", rl, gen)
		}
		_, data = postQuery(t, ts, QueryRequest{Query: "string(/r)", Document: "d"})
		if qr := decodeQuery(t, data); *qr.Result.String != want || qr.Generation != gen || !qr.Cached {
			t.Fatalf("after reload to generation %d: %+v", gen, qr)
		}
	}
	if cache.Len() != entries || cache.Stats().Misses != misses {
		t.Fatalf("reloads touched the cache: %d entries, %d misses; want %d, %d",
			cache.Len(), cache.Stats().Misses, entries, misses)
	}
	if st := cache.Stats(); st.Invalidations != 0 {
		t.Fatalf("invalidations = %d, want 0", st.Invalidations)
	}

	// Reloading an unknown document is a structured 404.
	resp, err := ts.Client().Post(ts.URL+"/reload?document=nope", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || errCode(t, data) != httpapi.CodeUnknownDoc {
		t.Fatalf("reload unknown: %d %s", resp.StatusCode, data)
	}
}

// TestOneQueryTwoDocumentsCompilesOnce: the plan key names no document,
// so one query served on two documents compiles once, and each answer is
// its own document's.
func TestOneQueryTwoDocumentsCompilesOnce(t *testing.T) {
	cat := catalog.New()
	for name, xml := range map[string]string{"a": "<r><x/></r>", "b": "<r><x/><x/><x/></r>"} {
		if err := cat.OpenMem(name, strings.NewReader(xml)); err != nil {
			t.Fatal(err)
		}
	}
	cache := plancache.New(16, 0)
	_, ts := newTestService(t, Config{Catalog: cat, Cache: cache})
	for _, c := range []struct {
		doc    string
		want   float64
		cached bool
	}{{"a", 1, false}, {"b", 3, true}, {"a", 1, true}} {
		st, data := postQuery(t, ts, QueryRequest{Query: "count(//x)", Document: c.doc})
		if st != http.StatusOK {
			t.Fatalf("%s: %d %s", c.doc, st, data)
		}
		if qr := decodeQuery(t, data); *qr.Result.Number != c.want || qr.Cached != c.cached {
			t.Fatalf("%s: count %v cached %v, want %v %v", c.doc, *qr.Result.Number, qr.Cached, c.want, c.cached)
		}
	}
	if st := cache.Stats(); cache.Len() != 1 || st.Misses != 1 {
		t.Fatalf("cache: %d entries, %d misses; want 1, 1", cache.Len(), st.Misses)
	}
}

// TestReloadSwitchesAccessPath: the access path is decided per run against
// the live path index, so one cached plan takes the index scan on a
// generation whose summary favors it and navigation on the next, whose
// summary does not. A scan walks no axis; navigation does.
func TestReloadSwitchesAccessPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.xml")
	// One b among 600 other nodes: the scan wins. 200 b's among 201 nodes:
	// the scan's setup outweighs the short walk, so navigation wins.
	scanWins := "<r>" + strings.Repeat("<a><c/><c/></a>", 200) + "<b/></r>"
	navWins := "<r>" + strings.Repeat("<b/>", 200) + "</r>"
	if err := os.WriteFile(path, []byte(scanWins), 0o644); err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	if err := cat.OpenMemFile("d", path); err != nil {
		t.Fatal(err)
	}
	cache := plancache.New(16, 0)
	_, ts := newTestService(t, Config{Catalog: cat, Cache: cache, PathIndex: true})
	query := func() *QueryResponse {
		t.Helper()
		st, data := postQuery(t, ts, QueryRequest{Query: "//b", Document: "d"})
		if st != http.StatusOK {
			t.Fatalf("query: %d %s", st, data)
		}
		return decodeQuery(t, data)
	}
	if qr := query(); qr.Result.Count != 1 || qr.Stats.AxisSteps != 0 {
		t.Fatalf("generation 1: %d nodes, %d axis steps; want 1 from the index scan (0 steps)",
			qr.Result.Count, qr.Stats.AxisSteps)
	}
	if err := os.WriteFile(path, []byte(navWins), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Reload("d"); err != nil {
		t.Fatal(err)
	}
	qr := query()
	if qr.Result.Count != 200 || !qr.Cached || qr.Stats.AxisSteps == 0 {
		t.Fatalf("generation 2: %d nodes, cached %v, %d axis steps; want 200 from the cached plan by navigation",
			qr.Result.Count, qr.Cached, qr.Stats.AxisSteps)
	}
	if st := cache.Stats(); cache.Len() != 1 || st.Misses != 1 {
		t.Fatalf("cache: %d entries, %d misses; want 1, 1", cache.Len(), st.Misses)
	}
}

// heavyDoc builds a document big enough that //x[count(preceding-sibling::x)
// >= 0] takes real wall-clock time, for occupying workers deterministically.
func heavyDoc(n int) string {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "<x n=\"%d\"/>", i)
	}
	sb.WriteString("</r>")
	return sb.String()
}

const heavyQuery = "//x[count(preceding-sibling::x) >= 0]"

// distinctHeavyQuery is heavyQuery's cost under a different canonical form
// per i, so concurrent copies never coalesce into one execution.
func distinctHeavyQuery(i int) string {
	return fmt.Sprintf("//x[count(preceding-sibling::x) >= -%d]", i)
}

func TestAdmissionControl(t *testing.T) {
	cat := catalog.New()
	if err := cat.OpenMem("d", strings.NewReader(heavyDoc(1500))); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestService(t, Config{
		Catalog:        cat,
		Workers:        1,
		QueueDepth:     1,
		DefaultTimeout: 30 * time.Second,
	})

	// Capacity is 1 executing + 1 queued. 12 simultaneous heavy queries must
	// see structured 429s for the overflow, and 200s for the admitted ones —
	// never a mid-execution failure. The queries are distinct: identical
	// ones would coalesce into one execution and never fill the queue
	// (TestSingleflightCoalesces covers that path).
	const clients = 12
	var ok, rejected, other atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, data := postQuery(t, ts, QueryRequest{Query: distinctHeavyQuery(i), Document: "d"})
			switch status {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				if errCode(t, data) != httpapi.CodeOverloaded {
					t.Errorf("429 code = %s", data)
				}
				rejected.Add(1)
			default:
				t.Errorf("unexpected status %d: %s", status, data)
				other.Add(1)
			}
		}()
	}
	wg.Wait()
	if ok.Load() == 0 || rejected.Load() == 0 || other.Load() != 0 {
		t.Fatalf("ok=%d rejected=%d other=%d", ok.Load(), rejected.Load(), other.Load())
	}
}

// holdWorker posts a query that runs for seconds on heavyDoc(3000) and
// returns once a worker executes it. The returned release makes its client
// leave, which cancels the execution and frees the worker; the test's
// cleanup calls it too.
func holdWorker(t *testing.T, s *Server, ts *httptest.Server) (release func()) {
	t.Helper()
	body, err := json.Marshal(QueryRequest{Query: "count(//x[count(following::x[count(preceding-sibling::x) > @n]) >= 0])", Document: "d"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	before := s.Counters().Executed
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := ts.Client().Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Counters().Executed == before {
		if time.Now().After(deadline) {
			cancel()
			t.Fatal("holding query never started")
		}
		time.Sleep(time.Millisecond)
	}
	release = func() {
		cancel()
		<-done
	}
	t.Cleanup(release)
	return release
}

// TestOverloadKeepsShardReady: overload has one answer, the queue-full 429.
// A burst past the queue leaves the shard ready and the queue as deep as
// configured.
func TestOverloadKeepsShardReady(t *testing.T) {
	cat := catalog.New()
	if err := cat.OpenMem("d", strings.NewReader(heavyDoc(3000))); err != nil {
		t.Fatal(err)
	}
	const queueDepth = 2
	s, ts := newTestService(t, Config{
		Catalog:        cat,
		Workers:        1,
		QueueDepth:     queueDepth,
		DefaultTimeout: 30 * time.Second,
	})
	// Distinct cheap queries: identical ones would coalesce and never
	// reach the queue.
	cheap := func(i int) QueryRequest {
		return QueryRequest{Query: fmt.Sprintf("count(//x[@n >= %d])", i), Document: "d"}
	}
	type answer struct {
		status int
		data   []byte
	}
	send := func(out chan<- answer, req QueryRequest) {
		st, data := postQuery(t, ts, req)
		out <- answer{st, data}
	}

	// Burst: queueDepth requests queue behind the held worker, and every
	// other one gets the queue-full 429 at once.
	release := holdWorker(t, s, ts)
	const burst = 3*queueDepth + 1
	answers := make(chan answer, burst)
	for i := 0; i < burst; i++ {
		go send(answers, cheap(i))
	}
	for i := 0; i < burst-queueDepth; i++ {
		select {
		case a := <-answers:
			if a.status != http.StatusTooManyRequests || errCode(t, a.data) != httpapi.CodeOverloaded {
				t.Fatalf("burst answer %d: %d %s, want 429 %s", i, a.status, a.data, httpapi.CodeOverloaded)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d burst requests answered", i, burst-queueDepth)
		}
	}
	if n := len(s.jobs); n != queueDepth {
		t.Fatalf("%d jobs queued after the burst, want %d", n, queueDepth)
	}

	// The burst changed neither readiness nor the state gauge.
	resp, err := ts.Client().Get(ts.URL + "/healthz/ready")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ready after the burst = %d, want 200", resp.StatusCode)
	}
	if got := scrapeCounter(t, ts, "natix_serve_state"); got != int64(StateHealthy) {
		t.Fatalf("natix_serve_state after the burst = %d, want %d", got, StateHealthy)
	}

	// The worker frees and the queued requests run.
	release()
	for i := 0; i < queueDepth; i++ {
		if a := <-answers; a.status != http.StatusOK {
			t.Fatalf("queued request: %d %s", a.status, a.data)
		}
	}

	// The queue did not shrink: queueDepth requests queue again.
	release = holdWorker(t, s, ts)
	for i := 0; i < queueDepth; i++ {
		go send(answers, cheap(burst+i))
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(s.jobs) < queueDepth {
		select {
		case a := <-answers:
			t.Fatalf("request answered while the worker was held: %d %s", a.status, a.data)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests queued", len(s.jobs), queueDepth)
		}
		time.Sleep(time.Millisecond)
	}
	release()
	for i := 0; i < queueDepth; i++ {
		if a := <-answers; a.status != http.StatusOK {
			t.Fatalf("requeued request: %d %s", a.status, a.data)
		}
	}
}

func TestShutdownDrains(t *testing.T) {
	cat := catalog.New()
	if err := cat.OpenMem("d", strings.NewReader(heavyDoc(1500))); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Catalog: cat, Workers: 2, DefaultTimeout: 30 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer cat.CloseAll()

	inFlight := make(chan int, 1)
	go func() {
		status, _ := postQuery(t, ts, QueryRequest{Query: heavyQuery, Document: "d"})
		inFlight <- status
	}()
	// Wait for the query to be admitted before starting the drain.
	deadline := time.Now().Add(5 * time.Second)
	for mInFlight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The in-flight query finished normally; it was not cut off by the drain.
	if status := <-inFlight; status != http.StatusOK {
		t.Fatalf("in-flight query during drain = %d", status)
	}
	// New queries during/after the drain get a structured 503.
	status, data := postQuery(t, ts, QueryRequest{Query: "/r", Document: "d"})
	if status != http.StatusServiceUnavailable || errCode(t, data) != httpapi.CodeShuttingDown {
		t.Fatalf("post-drain query: %d %s", status, data)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d", resp.StatusCode)
	}
}

// scrapeCounter reads one counter value from the /metrics endpoint.
func scrapeCounter(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufioLines(t, resp.Body)
	for _, line := range sc {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("metric %s not exported", name)
	return 0
}

func bufioLines(t *testing.T, r io.Reader) []string {
	t.Helper()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(data), "\n")
}

// TestLoadConcurrentClients is the service's load test: 64 concurrent
// clients with a warm plan cache across a mem and a store document. Run
// under -race it must complete with zero races, no mid-execution errors,
// and a plan-cache hit rate above 90% as reported by /metrics.
func TestLoadConcurrentClients(t *testing.T) {
	metrics.Enable()
	defer metrics.Disable()

	cat := catalog.New()
	xml := `<site><people>` +
		strings.Repeat(`<person><name>n</name><age>7</age></person>`, 40) +
		`</people></site>`
	if err := cat.OpenMem("mem", strings.NewReader(xml)); err != nil {
		t.Fatal(err)
	}
	memDoc, err := dom.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	storePath := filepath.Join(t.TempDir(), "doc.natix")
	if err := store.Write(storePath, memDoc); err != nil {
		t.Fatal(err)
	}
	if err := cat.OpenStore("disk", storePath, store.Options{BufferPages: 32}); err != nil {
		t.Fatal(err)
	}

	const clients = 64
	const perClient = 25
	cache := plancache.New(1024, 0)
	_, ts := newTestService(t, Config{
		Catalog:    cat,
		Cache:      cache,
		Workers:    8,
		QueueDepth: 4096, // never reject: this test measures the hot path
	})

	// Coalesced requests never touch the plan cache, and this test measures
	// cache behavior, so every request must look up: each client draws from
	// its own queries, semantically distinct from every other client's.
	templates := []string{
		"//person[%d >= 0]/name",
		"count(//person) + %d",
		"/site/people/person[position() = last()][%d >= 0]",
		"//person[age > 5][%d >= 0]/name",
		"concat(string(//person[1]/name), %d)",
		"sum(//age) + %d",
	}
	docs := []string{"mem", "disk"}
	query := func(c, r int) QueryRequest {
		return QueryRequest{Query: fmt.Sprintf(templates[r%len(templates)], c), Document: docs[r/len(templates)%len(docs)]}
	}

	// Warm the cache: each client's (query, document) pairs compile once.
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < len(templates)*len(docs); r++ {
				if status, data := postQuery(t, ts, query(c, r)); status != http.StatusOK {
					t.Errorf("warmup %+v: %d %s", query(c, r), status, data)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	hits0 := scrapeCounter(t, ts, "natix_plancache_hits_total")
	misses0 := scrapeCounter(t, ts, "natix_plancache_misses_total")

	var failures atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				req := query(c, c+r)
				status, data := postQuery(t, ts, req)
				if status != http.StatusOK {
					t.Errorf("client %d: %+v: %d %s", c, req, status, data)
					failures.Add(1)
					return
				}
				decodeQuery(t, data)
			}
		}()
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d requests failed", failures.Load())
	}

	hits := scrapeCounter(t, ts, "natix_plancache_hits_total") - hits0
	misses := scrapeCounter(t, ts, "natix_plancache_misses_total") - misses0
	total := hits + misses
	if total < clients*perClient {
		t.Fatalf("metrics lost lookups: hits=%d misses=%d", hits, misses)
	}
	rate := float64(hits) / float64(total)
	if rate <= 0.90 {
		t.Fatalf("plan-cache hit rate %.3f (hits=%d misses=%d), want > 0.90", rate, hits, misses)
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatal("cache's own stats recorded no hits")
	}
}
