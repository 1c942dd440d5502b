package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"natix/internal/catalog"
	"natix/internal/httpapi"
	"natix/internal/plancache"
	"natix/internal/server"
)

// testShard is an in-process shard: its HTTP server and the service behind
// it, whose counters a test can read.
type testShard struct {
	*httptest.Server
	svc *server.Server
}

// startShard spins up an in-process shard serving docs (name → XML source).
func startShard(t *testing.T, docs map[string]string) *testShard {
	t.Helper()
	cat := catalog.New()
	for name, src := range docs {
		if err := cat.OpenMem(name, strings.NewReader(src)); err != nil {
			t.Fatal(err)
		}
	}
	s := server.New(server.Config{Catalog: cat, Cache: plancache.New(64, 0)})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		cat.CloseAll()
	})
	return &testShard{Server: ts, svc: s}
}

// startCluster builds one shard per placement entry (IDs s0, s1, ...), a
// topology over them, and a probed coordinator. The probe loop is parked on
// a long interval; tests drive probes with ProbeNow for determinism.
func startCluster(t *testing.T, placement []map[string]string, cfg Config) (*Coordinator, []*testShard) {
	t.Helper()
	spec := TopologySpec{Generation: 1}
	shards := make([]*testShard, 0, len(placement))
	for i, docs := range placement {
		ts := startShard(t, docs)
		shards = append(shards, ts)
		spec.Shards = append(spec.Shards, ShardSpec{
			ID:        fmt.Sprintf("s%d", i),
			Endpoints: []string{ts.URL},
		})
	}
	topo, err := NewTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topology = topo
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Hour
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		coord.Shutdown(ctx)
		coord.Close()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	coord.ProbeNow(ctx)
	return coord, shards
}

func postCoord(t *testing.T, h http.Handler, req QueryRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	data, _ := io.ReadAll(w.Result().Body)
	return w.Code, data
}

func decodeCoord(t *testing.T, data []byte) *QueryResponse {
	t.Helper()
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
	return &qr
}

func coordErr(t *testing.T, data []byte) (string, string) {
	t.Helper()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(data, &env); err != nil || env.Error.Code == "" {
		t.Fatalf("not an error envelope: %s", data)
	}
	return env.Error.Code, env.Error.Message
}

// nodeValues flattens a node-set's values for order assertions.
func nodeValues(r *server.QueryResult) []string {
	if r == nil {
		return nil
	}
	out := make([]string, 0, len(r.Nodes))
	for _, n := range r.Nodes {
		out = append(out, n.Value)
	}
	return out
}

func xdoc(values ...string) string {
	var b strings.Builder
	b.WriteString("<d>")
	for _, v := range values {
		fmt.Fprintf(&b, "<x>%s</x>", v)
	}
	b.WriteString("</d>")
	return b.String()
}

func TestCoordinatorSingleDocRouting(t *testing.T) {
	coord, _ := startCluster(t, []map[string]string{
		{"alpha": xdoc("a1", "a2")},
		{"beta": xdoc("b1")},
	}, Config{})
	h := coord.Handler()

	status, data := postCoord(t, h, QueryRequest{QueryRequest: server.QueryRequest{Query: "//x", Document: "beta"}})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	qr := decodeCoord(t, data)
	if qr.Document != "beta" || qr.Generation != 1 {
		t.Fatalf("meta = %+v", qr)
	}
	if got := nodeValues(qr.Result); len(got) != 1 || got[0] != "b1" {
		t.Fatalf("nodes = %v", got)
	}
	// The timing breakdown names the shard that answered: beta is on s1 by
	// observed placement (the probe saw it there).
	if len(qr.Shards) != 1 || qr.Shards[0].Shard != "s1" || qr.Shards[0].Calls != 1 {
		t.Fatalf("shards = %+v", qr.Shards)
	}

	// A document no shard reports routes to the hash owner, whose 404
	// envelope passes through untouched.
	status, data = postCoord(t, h, QueryRequest{QueryRequest: server.QueryRequest{Query: "//x", Document: "nope"}})
	if status != http.StatusNotFound {
		t.Fatalf("unknown doc: status %d: %s", status, data)
	}
	if code, _ := coordErr(t, data); code != httpapi.CodeUnknownDoc {
		t.Fatalf("unknown doc: code %s", code)
	}
}

func TestCoordinatorScatterListOrdered(t *testing.T) {
	coord, _ := startCluster(t, []map[string]string{
		{"alpha": xdoc("a1", "a2"), "gamma": xdoc("g1")},
		{"beta": xdoc("b1", "b2")},
	}, Config{})
	h := coord.Handler()

	// The list arrives unsorted with a duplicate; the answer comes back in
	// global document order, deduplicated, with the merged node-set
	// concatenated in that order.
	status, data := postCoord(t, h, QueryRequest{
		QueryRequest: server.QueryRequest{Query: "//x", Document: "gamma, beta,alpha,beta"},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	qr := decodeCoord(t, data)
	if qr.Partial || len(qr.Failed) != 0 {
		t.Fatalf("unexpected partial: %+v", qr)
	}
	var docs []string
	for _, d := range qr.PerDocument {
		docs = append(docs, d.Document)
	}
	if want := []string{"alpha", "beta", "gamma"}; !equalStrings(docs, want) {
		t.Fatalf("per-document order = %v, want %v", docs, want)
	}
	if got, want := nodeValues(qr.Result), []string{"a1", "a2", "b1", "b2", "g1"}; !equalStrings(got, want) {
		t.Fatalf("merged nodes = %v, want %v", got, want)
	}
	if qr.Result.Count != 5 {
		t.Fatalf("merged count = %d", qr.Result.Count)
	}
	// Each node travels once: the per-document entries keep their count
	// but carry no nodes.
	for i, d := range qr.PerDocument {
		if d.Result.Kind != "node-set" || d.Result.Count != []int{2, 2, 1}[i] || d.Result.Nodes != nil {
			t.Fatalf("per-document %s result = %+v", d.Document, d.Result)
		}
	}
	// Per-shard breakdown: s0 answered 2 documents, s1 answered 1.
	calls := map[string]int{}
	for _, sh := range qr.Shards {
		calls[sh.Shard] = sh.Calls
	}
	if calls["s0"] != 2 || calls["s1"] != 1 {
		t.Fatalf("shard calls = %v", calls)
	}

	// An empty name in the list is a client error, not a silent skip.
	status, data = postCoord(t, h, QueryRequest{
		QueryRequest: server.QueryRequest{Query: "//x", Document: "alpha,,beta"},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("empty list entry: status %d: %s", status, data)
	}
}

func TestCoordinatorWildcard(t *testing.T) {
	coord, _ := startCluster(t, []map[string]string{
		{"c": xdoc("c1")},
		{"a": xdoc("a1"), "d": xdoc("d1")},
		{"b": xdoc("b1")},
	}, Config{})
	h := coord.Handler()

	status, data := postCoord(t, h, QueryRequest{QueryRequest: server.QueryRequest{Query: "//x", Document: "*"}})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	qr := decodeCoord(t, data)
	if got, want := nodeValues(qr.Result), []string{"a1", "b1", "c1", "d1"}; !equalStrings(got, want) {
		t.Fatalf("wildcard nodes = %v, want %v", got, want)
	}
	for i, d := range qr.PerDocument {
		if d.Document != []string{"a", "b", "c", "d"}[i] {
			t.Fatalf("per-document order = %+v", qr.PerDocument)
		}
	}
}

func TestCoordinatorScalarKindsStayPerDocument(t *testing.T) {
	coord, _ := startCluster(t, []map[string]string{
		{"a": xdoc("1", "2")},
		{"b": xdoc("3")},
	}, Config{})
	status, data := postCoord(t, coord.Handler(), QueryRequest{
		QueryRequest: server.QueryRequest{Query: "count(//x)", Document: "a,b"},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	qr := decodeCoord(t, data)
	// Scalar kinds do not concatenate: no merged result, the per-document
	// answers are authoritative.
	if qr.Result != nil {
		t.Fatalf("merged scalar result = %+v", qr.Result)
	}
	if len(qr.PerDocument) != 2 ||
		qr.PerDocument[0].Result.Kind != "number" || *qr.PerDocument[0].Result.Number != 2 ||
		*qr.PerDocument[1].Result.Number != 1 {
		t.Fatalf("per-document = %+v", qr.PerDocument)
	}
}

// killShard closes a shard's listener and probes until the coordinator's
// hysteresis demotes it.
func killShard(t *testing.T, coord *Coordinator, ts *testShard, id string) {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < unhealthyAfter; i++ {
		coord.ProbeNow(ctx)
	}
	if coord.state.Load().shards[id].healthy.Load() {
		t.Fatalf("shard %s still healthy after %d failed probes", id, unhealthyAfter)
	}
}

func TestCoordinatorPartialEnvelope(t *testing.T) {
	coord, shards := startCluster(t, []map[string]string{
		{"alpha": xdoc("a1")},
		{"beta": xdoc("b1"), "delta": xdoc("dd")},
	}, Config{})
	h := coord.Handler()
	killShard(t, coord, shards[1], "s1")

	// Non-partial: the surfaced failure is the one earliest in global
	// document order (beta, not delta), deterministically.
	status, data := postCoord(t, h, QueryRequest{QueryRequest: server.QueryRequest{Query: "//x", Document: "*"}})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", status, data)
	}
	code, msg := coordErr(t, data)
	if code != httpapi.CodeShardUnreachable || !strings.Contains(msg, `"beta"`) {
		t.Fatalf("first error = %s %q, want %s naming beta", code, msg, httpapi.CodeShardUnreachable)
	}

	// Partial: explicit envelope, every missing document listed, the
	// answered slice intact and ordered.
	status, data = postCoord(t, h, QueryRequest{
		QueryRequest: server.QueryRequest{Query: "//x", Document: "*"},
		AllowPartial: true,
	})
	if status != http.StatusOK {
		t.Fatalf("partial status %d: %s", status, data)
	}
	qr := decodeCoord(t, data)
	if !qr.Partial {
		t.Fatalf("partial flag missing: %+v", qr)
	}
	var failedDocs []string
	for _, f := range qr.Failed {
		if f.Shard != "s1" || f.Code != httpapi.CodeShardUnreachable {
			t.Fatalf("failure = %+v", f)
		}
		failedDocs = append(failedDocs, f.Document)
	}
	if !equalStrings(failedDocs, []string{"beta", "delta"}) {
		t.Fatalf("failed docs = %v", failedDocs)
	}
	if got := nodeValues(qr.Result); !equalStrings(got, []string{"a1"}) {
		t.Fatalf("surviving nodes = %v", got)
	}

	// Single-document routing to the dead shard fails fast with the same
	// code, without a fan-out attempt.
	status, data = postCoord(t, h, QueryRequest{QueryRequest: server.QueryRequest{Query: "//x", Document: "beta"}})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("dead single: status %d: %s", status, data)
	}
	if code, _ := coordErr(t, data); code != httpapi.CodeShardUnreachable {
		t.Fatalf("dead single: code %s", code)
	}
}

func TestCoordinatorShardRecovery(t *testing.T) {
	coord, shards := startCluster(t, []map[string]string{
		{"alpha": xdoc("a1")},
		{"beta": xdoc("b1")},
	}, Config{})
	killShard(t, coord, shards[1], "s1")

	// Resurrect the shard at the same address: impossible with httptest, so
	// point the state's probe/query clients at a fresh shard instead — the
	// hysteresis path under test is the same.
	fresh := startShard(t, map[string]string{"beta": xdoc("b1")})
	sh := coord.state.Load().shards["s1"]
	for _, c := range sh.clients {
		c.BaseURL = fresh.URL
	}
	for _, c := range sh.probes {
		c.BaseURL = fresh.URL
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	coord.ProbeNow(ctx)
	if sh.healthy.Load() {
		t.Fatal("one good probe promoted the shard: hysteresis broken")
	}
	coord.ProbeNow(ctx)
	if !sh.healthy.Load() {
		t.Fatal("shard not promoted after HealthyAfter good probes")
	}
	status, data := postCoord(t, coord.Handler(), QueryRequest{QueryRequest: server.QueryRequest{Query: "//x", Document: "beta"}})
	if status != http.StatusOK {
		t.Fatalf("recovered shard: status %d: %s", status, data)
	}
}

func TestCoordinatorAdmissionAndDrain(t *testing.T) {
	coord, _ := startCluster(t, []map[string]string{
		{"a": xdoc("a1")},
	}, Config{MaxInflight: 1})
	h := coord.Handler()

	// Occupy the only slot; the next query must get the structured 429.
	coord.slots <- struct{}{}
	status, data := postCoord(t, h, QueryRequest{QueryRequest: server.QueryRequest{Query: "//x", Document: "a"}})
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s", status, data)
	}
	if code, _ := coordErr(t, data); code != httpapi.CodeOverloaded {
		t.Fatalf("code %s", code)
	}
	<-coord.slots

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	status, data = postCoord(t, h, QueryRequest{QueryRequest: server.QueryRequest{Query: "//x", Document: "a"}})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("draining: status %d: %s", status, data)
	}
	if code, _ := coordErr(t, data); code != httpapi.CodeShuttingDown {
		t.Fatalf("draining: code %s", code)
	}
}

func TestCoordinatorTopologyReloadCarryOver(t *testing.T) {
	coord, shards := startCluster(t, []map[string]string{
		{"alpha": xdoc("a1")},
		{"beta": xdoc("b1")},
	}, Config{})
	h := coord.Handler()
	_ = shards

	// Add a shard (dead endpoint: the prober will find out, routing should
	// not have to). The two existing shards carry their state over.
	next := TopologySpec{Generation: 2, Shards: []ShardSpec{
		{ID: "s0", Endpoints: []string{shards[0].URL}},
		{ID: "s1", Endpoints: []string{shards[1].URL}},
		{ID: "s9", Endpoints: []string{"http://127.0.0.1:1"}},
	}}
	body, _ := json.Marshal(next)
	r := httptest.NewRequest(http.MethodPost, "/topology", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("reload status %d: %s", w.Code, w.Body)
	}
	var ack struct {
		Generation  uint64 `json:"generation"`
		Shards      int    `json:"shards"`
		CarriedOver int    `json:"carried_over"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Generation != 2 || ack.Shards != 3 || ack.CarriedOver != 2 {
		t.Fatalf("ack = %+v", ack)
	}

	// Observed placement survived the install: beta still routes to s1
	// without waiting for a fresh probe round.
	status, data := postCoord(t, h, QueryRequest{QueryRequest: server.QueryRequest{Query: "//x", Document: "beta"}})
	if status != http.StatusOK {
		t.Fatalf("post-reload query: status %d: %s", status, data)
	}
	qr := decodeCoord(t, data)
	if len(qr.Shards) != 1 || qr.Shards[0].Shard != "s1" {
		t.Fatalf("post-reload routing = %+v", qr.Shards)
	}

	// GET /topology reports the new generation and all three shards.
	r = httptest.NewRequest(http.MethodGet, "/topology", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var topoView struct {
		Generation uint64        `json:"generation"`
		Shards     []ShardStatus `json:"shards"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &topoView); err != nil {
		t.Fatal(err)
	}
	if topoView.Generation != 2 || len(topoView.Shards) != 3 {
		t.Fatalf("topology view = %+v", topoView)
	}
}

func TestCoordinatorTopologyFileReload(t *testing.T) {
	shard := startShard(t, map[string]string{"a": xdoc("a1")})
	spec := TopologySpec{Generation: 1, Shards: []ShardSpec{{ID: "s0", Endpoints: []string{shard.URL}}}}
	topo, err := NewTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/cluster.json"
	if err := topo.Save(path); err != nil {
		t.Fatal(err)
	}
	coord, err := New(Config{Topology: topo, TopologyPath: path, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	h := coord.Handler()

	// POSTing a body persists it through the atomic-rename contract, so the
	// file on disk always matches the installed topology.
	spec.Generation = 5
	body, _ := json.Marshal(spec)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/topology", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("post status %d: %s", w.Code, w.Body)
	}
	onDisk, err := LoadTopologyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.Generation() != 5 {
		t.Fatalf("file generation = %d after POST, want 5", onDisk.Generation())
	}

	// An empty POST re-reads the file.
	spec.Generation = 9
	topo9, err := NewTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo9.Save(path); err != nil {
		t.Fatal(err)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/topology", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("empty post status %d: %s", w.Code, w.Body)
	}
	if got := coord.state.Load().topo.Generation(); got != 9 {
		t.Fatalf("installed generation = %d after file reload, want 9", got)
	}
}

func TestCoordinatorDocumentsAndHealth(t *testing.T) {
	coord, shards := startCluster(t, []map[string]string{
		{"alpha": xdoc("a1")},
		{"beta": xdoc("b1")},
	}, Config{})
	h := coord.Handler()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/documents", nil))
	var docsView struct {
		Documents []struct {
			Name       string `json:"name"`
			Shard      string `json:"shard"`
			Generation uint64 `json:"generation"`
		} `json:"documents"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &docsView); err != nil {
		t.Fatal(err)
	}
	if len(docsView.Documents) != 2 ||
		docsView.Documents[0].Name != "alpha" || docsView.Documents[0].Shard != "s0" ||
		docsView.Documents[1].Name != "beta" || docsView.Documents[1].Shard != "s1" {
		t.Fatalf("documents = %+v", docsView.Documents)
	}
	if docsView.Documents[0].Generation != 1 {
		t.Fatalf("generation not propagated: %+v", docsView.Documents[0])
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/buildinfo", nil))
	var bi server.BuildInfo
	if err := json.Unmarshal(w.Body.Bytes(), &bi); err != nil {
		t.Fatal(err)
	}
	if bi.Role != "coordinator" || bi.Version == "" || bi.StoreFormatVersion == 0 {
		t.Fatalf("buildinfo = %+v", bi)
	}

	// Healthy cluster: /healthz ok, /healthz/ready 200.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz/ready", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("ready = %d", w.Code)
	}

	killShard(t, coord, shards[1], "s1")
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var hz struct {
		Status        string `json:"status"`
		HealthyShards int    `json:"healthy_shards"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "degraded" || hz.HealthyShards != 1 {
		t.Fatalf("healthz = %+v", hz)
	}
	// One shard left: still ready (partial capability beats none).
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz/ready", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("degraded ready = %d", w.Code)
	}

	killShard(t, coord, shards[0], "s0")
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz/ready", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("all-dead ready = %d", w.Code)
	}
}

// countQueries returns a Config.WrapTransport that counts the
// coordinator's shard /query calls in n.
func countQueries(n *atomic.Int64) func(http.RoundTripper) http.RoundTripper {
	return func(rt http.RoundTripper) http.RoundTripper {
		return roundTripFunc(func(r *http.Request) (*http.Response, error) {
			if strings.HasSuffix(r.URL.Path, "/query") {
				n.Add(1)
			}
			return rt.RoundTrip(r)
		})
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestCoordinatorRejectsBadRequests: the front answers a malformed request
// itself, without calling a shard.
func TestCoordinatorRejectsBadRequests(t *testing.T) {
	var calls atomic.Int64
	coord, _ := startCluster(t, []map[string]string{{"a": xdoc("a1")}, {"b": xdoc("b1")}},
		Config{WrapTransport: countQueries(&calls)})
	h := coord.Handler()
	for name, body := range map[string]string{
		"unknown field": `{"query":"//x","document":"a","bogus":1}`,
		"missing query": `{"document":"a"}`,
		"missing doc":   `{"query":"//x"}`,
		"not JSON":      `nope`,
		"unknown mode":  `{"query":"//x","document":"*","mode":"bogus"}`,
	} {
		calls.Store(0)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d: %s", name, w.Code, w.Body)
			continue
		}
		code, msg := coordErr(t, w.Body.Bytes())
		if code != httpapi.CodeBadRequest {
			t.Errorf("%s: code %s", name, code)
		}
		if name == "unknown mode" && msg != `unknown mode "bogus"` {
			t.Errorf("%s: message %q", name, msg)
		}
		if n := calls.Load(); n != 0 {
			t.Errorf("%s: %d shard /query calls, want 0", name, n)
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/query", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /query = %d", w.Code)
	}
}

// TestCoordinatorWildcardMatchesSingleNode is the ordering contract stated
// end to end: the wildcard merge over a sharded corpus is byte-identical to
// concatenating each document's single-node answer in sorted name order.
// It also counts that the four shards split the work: each runs the query
// once per document placed on it, and no document runs twice.
func TestCoordinatorWildcardMatchesSingleNode(t *testing.T) {
	corpus := map[string]string{}
	for i := 0; i < 16; i++ {
		corpus[fmt.Sprintf("doc%02d", i)] = xdoc(
			fmt.Sprintf("v%02d-1", i), fmt.Sprintf("v%02d-2", i))
	}
	// Shard the corpus by hash placement, exactly as an operator using
	// Place would.
	spec := testSpec("s0", "s1", "s2", "s3")
	topo, err := NewTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(corpus))
	for n := range corpus {
		names = append(names, n)
	}
	byShard := topo.Place(names)
	placement := make([]map[string]string, 4)
	for i, id := range topo.ShardIDs() {
		placement[i] = map[string]string{}
		for _, n := range byShard[id] {
			placement[i][n] = corpus[n]
		}
	}
	coord, shards := startCluster(t, placement, Config{})
	single := startShard(t, corpus)

	status, data := postCoord(t, coord.Handler(), QueryRequest{
		QueryRequest: server.QueryRequest{Query: "//x", Document: "*"},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	merged := decodeCoord(t, data)
	var executed int64
	for i, id := range topo.ShardIDs() {
		n := shards[i].svc.Counters().Executed
		if want := int64(len(byShard[id])); n != want {
			t.Errorf("shard %s executed %d runs, holds %d documents", id, n, want)
		}
		executed += n
	}
	if executed != int64(len(corpus)) {
		t.Errorf("shards executed %d runs for %d documents", executed, len(corpus))
	}

	sort.Strings(names)
	var want []server.QueryNode
	for _, n := range names {
		resp, err := http.Post(single.URL+"/query", "application/json",
			strings.NewReader(fmt.Sprintf(`{"query":"//x","document":"%s"}`, n)))
		if err != nil {
			t.Fatal(err)
		}
		var qr server.QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want = append(want, qr.Result.Nodes...)
	}
	got, err := json.Marshal(merged.Result.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSON) {
		t.Fatalf("merged nodes diverge from single-node concatenation:\n got %s\nwant %s", got, wantJSON)
	}
}

// TestMergeCarriesNodesOnce: a merged node-set takes the per-document
// nodes over, in order, into a list sized once; an answer that does not
// merge leaves every per-document result as it came.
func TestMergeCarriesNodesOnce(t *testing.T) {
	sh := &shardState{id: "s0"}
	nodeSet := func(doc string, count int, truncated bool, values ...string) docOutcome {
		r := server.QueryResult{Kind: "node-set", Count: count, Truncated: truncated}
		for _, v := range values {
			r.Nodes = append(r.Nodes, server.QueryNode{Kind: "text", Value: v})
		}
		return docOutcome{doc: doc, shard: sh, resp: &server.QueryResponse{Document: doc, Result: r}}
	}
	m := mergeOutcomes([]docOutcome{nodeSet("a", 2, false, "a1", "a2"), nodeSet("b", 0, false), nodeSet("c", 3, true, "c1")})
	if got := nodeValues(m.result); !equalStrings(got, []string{"a1", "a2", "c1"}) || cap(m.result.Nodes) != 3 {
		t.Fatalf("merged nodes = %v (capacity %d)", got, cap(m.result.Nodes))
	}
	if m.result.Count != 5 || !m.result.Truncated {
		t.Fatalf("merged result = %+v", m.result)
	}
	for i, d := range m.perDoc {
		if d.Result.Nodes != nil || d.Result.Count != []int{2, 0, 3}[i] || d.Result.Truncated != (i == 2) {
			t.Fatalf("per-document %s result = %+v", d.Document, d.Result)
		}
	}

	two := 2.0
	mixed := mergeOutcomes([]docOutcome{
		nodeSet("a", 1, false, "a1"),
		{doc: "b", shard: sh, resp: &server.QueryResponse{Document: "b", Result: server.QueryResult{Kind: "number", Number: &two}}},
	})
	if mixed.result != nil || len(mixed.perDoc[0].Result.Nodes) != 1 || *mixed.perDoc[1].Result.Number != 2 {
		t.Fatalf("mixed kinds merged: result %+v, per-document %+v", mixed.result, mixed.perDoc)
	}
}
