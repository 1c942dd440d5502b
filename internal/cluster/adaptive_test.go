package cluster

// Coordinator-level adaptive serving: singleflight coalescing of identical
// in-flight fan-outs and the /reload fan-out with per-shard aggregation.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"natix/internal/catalog"
	"natix/internal/httpapi"
	"natix/internal/plancache"
	"natix/internal/server"
)

// delayTransport delays every coordinator->shard /query call while delay
// is set, holding coordinator flights open long enough for joins to be
// deterministic, and reports on cancelled each delayed call whose context
// ended first.
type delayTransport struct {
	base      http.RoundTripper
	delay     atomic.Int64 // a time.Duration; zero passes calls straight through
	cancelled chan struct{}
}

func (d *delayTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if delay := time.Duration(d.delay.Load()); delay > 0 && strings.HasSuffix(r.URL.Path, "/query") {
		select {
		case <-time.After(delay):
		case <-r.Context().Done():
			select {
			case d.cancelled <- struct{}{}:
			default:
			}
			return nil, r.Context().Err()
		}
	}
	return d.base.RoundTrip(r)
}

// newDelay returns a delayTransport and the Config.WrapTransport that
// installs it.
func newDelay(delay time.Duration) (*delayTransport, func(http.RoundTripper) http.RoundTripper) {
	d := &delayTransport{cancelled: make(chan struct{}, 8)}
	d.delay.Store(int64(delay))
	return d, func(rt http.RoundTripper) http.RoundTripper {
		d.base = rt
		return d
	}
}

func delayShardQueries(delay time.Duration) func(http.RoundTripper) http.RoundTripper {
	_, wrap := newDelay(delay)
	return wrap
}

// waitCoordFlight blocks until the coordinator has any open flight.
func waitCoordFlight(t *testing.T, c *Coordinator) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.front.Flights() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("coordinator flight never registered")
		}
		time.Sleep(time.Millisecond)
	}
}

func smallDoc(n int) string {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "<x>%d</x>", i)
	}
	sb.WriteString("</r>")
	return sb.String()
}

func TestCoordSingleflightCoalesces(t *testing.T) {
	coord, _ := startCluster(t, []map[string]string{
		{"a": smallDoc(8)},
	}, Config{WrapTransport: delayShardQueries(250 * time.Millisecond)})
	h := coord.Handler()

	// Two spellings of one query, and two of its mode: the flight key is
	// canonical, so they share a single fan-out.
	queries := []string{"count(//x)", "count(//x)", "count(/descendant::x)", "count(//x)"}
	modes := []string{"", "", "", "improved"}
	type res struct {
		status    int
		coalesced bool
		number    float64
	}
	results := make([]res, len(queries))
	var wg sync.WaitGroup
	leaderGo := func(i int) {
		defer wg.Done()
		st, data := postCoord(t, h, QueryRequest{QueryRequest: server.QueryRequest{
			Query: queries[i], Document: "a", Mode: modes[i],
		}})
		r := &results[i]
		r.status = st
		if st == http.StatusOK {
			qr := decodeCoord(t, data)
			r.coalesced = qr.Coalesced
			if qr.Result != nil && qr.Result.Number != nil {
				r.number = *qr.Result.Number
			}
		}
	}
	wg.Add(1)
	go leaderGo(0)
	waitCoordFlight(t, coord)
	for i := 1; i < len(queries); i++ {
		wg.Add(1)
		go leaderGo(i)
	}
	wg.Wait()

	leaders := 0
	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, r.status)
		}
		if r.number != 8 {
			t.Fatalf("request %d: number = %v, want 8", i, r.number)
		}
		if !r.coalesced {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d, want 1", leaders)
	}
	if got := coord.Coalesced(); got != int64(len(queries)-1) {
		t.Fatalf("coalesced = %d, want %d", got, len(queries)-1)
	}
}

func TestCoordLeaderErrorFanOut(t *testing.T) {
	coord, _ := startCluster(t, []map[string]string{
		{"a": smallDoc(4)},
	}, Config{WrapTransport: delayShardQueries(250 * time.Millisecond)})
	h := coord.Handler()

	const bad = "no-such-function(//x)"
	const clients = 4
	statuses := make([]int, clients)
	codes := make([]string, clients)
	var wg sync.WaitGroup
	run := func(i int) {
		defer wg.Done()
		st, data := postCoord(t, h, QueryRequest{QueryRequest: server.QueryRequest{
			Query: bad, Document: "a",
		}})
		statuses[i] = st
		if st != http.StatusOK {
			codes[i], _ = coordErr(t, data)
		}
	}
	wg.Add(1)
	go run(0)
	waitCoordFlight(t, coord)
	for i := 1; i < clients; i++ {
		wg.Add(1)
		go run(i)
	}
	wg.Wait()

	for i := 0; i < clients; i++ {
		if statuses[i] != http.StatusBadRequest || codes[i] != httpapi.CodeParseError {
			t.Fatalf("client %d: status %d code %q, want 400 %q",
				i, statuses[i], codes[i], httpapi.CodeParseError)
		}
	}
	if got := coord.Coalesced(); got != clients-1 {
		t.Fatalf("coalesced = %d, want %d", got, clients-1)
	}
}

func TestCoordWaiterCancelVsLeader(t *testing.T) {
	coord, _ := startCluster(t, []map[string]string{
		{"a": smallDoc(8)},
	}, Config{WrapTransport: delayShardQueries(300 * time.Millisecond)})
	h := coord.Handler()

	const q = "count(//x)"
	leaderDone := make(chan *QueryResponse, 1)
	go func() {
		st, data := postCoord(t, h, QueryRequest{QueryRequest: server.QueryRequest{
			Query: q, Document: "a",
		}})
		if st != http.StatusOK {
			leaderDone <- nil
			return
		}
		leaderDone <- decodeCoord(t, data)
	}()
	waitCoordFlight(t, coord)

	// Join with a deadline that expires while the shard call is still in
	// its injected delay: the joiner must 504 out without cancelling the
	// leader's fan-out.
	st, data := postCoord(t, h, QueryRequest{QueryRequest: server.QueryRequest{
		Query: q, Document: "a", TimeoutMS: 50,
	}})
	if st != http.StatusGatewayTimeout {
		t.Fatalf("joiner status = %d, want 504 (%s)", st, data)
	}
	if code, _ := coordErr(t, data); code != httpapi.CodeTimeout {
		t.Fatalf("joiner code = %q, want %q", code, httpapi.CodeTimeout)
	}
	qr := <-leaderDone
	if qr == nil || qr.Result == nil || qr.Result.Number == nil || *qr.Result.Number != 8 {
		t.Fatalf("leader did not complete after joiner cancel: %+v", qr)
	}
	if got := coord.Coalesced(); got != 1 {
		t.Fatalf("coalesced = %d, want 1", got)
	}
}

// TestCoordLeaderClientLeaves: the leader's own client hanging up is one
// waiter leaving. Alone on its flight, it takes the fan-out down with it:
// the shard call is cancelled at once instead of holding the only inflight
// slot for its full delay, and the next query is admitted.
func TestCoordLeaderClientLeaves(t *testing.T) {
	slow, wrap := newDelay(2 * time.Second)
	coord, _ := startCluster(t, []map[string]string{
		{"a": smallDoc(8)},
	}, Config{MaxInflight: 1, WrapTransport: wrap})
	h := coord.Handler()

	body, err := json.Marshal(QueryRequest{QueryRequest: server.QueryRequest{Query: "count(//x)", Document: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, hangUp := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, hangUp)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)).WithContext(ctx))
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("hung-up leader: status %d (%s), want 504", w.Code, w.Body)
	}
	select {
	case <-slow.cancelled:
	case <-time.After(time.Second):
		t.Fatal("shard call still running 1 s after the leader's client left")
	}
	deadline := time.Now().Add(time.Second)
	for len(coord.slots) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("the abandoned fan-out still holds the inflight slot")
		}
		time.Sleep(time.Millisecond)
	}
	slow.delay.Store(0)
	st, data := postCoord(t, h, QueryRequest{QueryRequest: server.QueryRequest{Query: "count(//x)", Document: "a"}})
	if st != http.StatusOK {
		t.Fatalf("next query: status %d (%s), want 200", st, data)
	}
}

// TestCoordJoinerOutlivesShortLeader: a joiner never inherits the leader's
// deadline. The 50 ms leader gets its own 504; the fan-out it started keeps
// going for the 5 s joiner, who gets the answer.
func TestCoordJoinerOutlivesShortLeader(t *testing.T) {
	coord, _ := startCluster(t, []map[string]string{
		{"a": smallDoc(8)},
	}, Config{WrapTransport: delayShardQueries(300 * time.Millisecond)})
	h := coord.Handler()

	const q = "count(//x)"
	leader := make(chan struct{})
	go func() {
		defer close(leader)
		st, data := postCoord(t, h, QueryRequest{QueryRequest: server.QueryRequest{Query: q, Document: "a", TimeoutMS: 50}})
		if code, _ := coordErr(t, data); st != http.StatusGatewayTimeout || code != httpapi.CodeTimeout {
			t.Errorf("50 ms leader: %d %s, want 504 %s", st, data, httpapi.CodeTimeout)
		}
	}()
	waitCoordFlight(t, coord)
	st, data := postCoord(t, h, QueryRequest{QueryRequest: server.QueryRequest{Query: q, Document: "a", TimeoutMS: 5000}})
	<-leader
	if st != http.StatusOK {
		t.Fatalf("5 s joiner: status %d (%s), want 200", st, data)
	}
	if qr := decodeCoord(t, data); !qr.Coalesced || qr.Result == nil || qr.Result.Number == nil || *qr.Result.Number != 8 {
		t.Fatalf("5 s joiner: %+v, want the coalesced count 8", qr)
	}
	if got := coord.Coalesced(); got != 1 {
		t.Fatalf("coalesced = %d, want 1", got)
	}
}

// TestCoordLoneShortLeaderCancels: a leader alone on its flight stops the
// fan-out when it leaves at its own deadline — the MaxTimeout bound is
// never run out — and the flight is gone the moment the leader answers.
func TestCoordLoneShortLeaderCancels(t *testing.T) {
	slow, wrap := newDelay(2 * time.Second)
	coord, _ := startCluster(t, []map[string]string{
		{"a": smallDoc(8)},
	}, Config{WrapTransport: wrap})

	st, data := postCoord(t, coord.Handler(), QueryRequest{QueryRequest: server.QueryRequest{
		Query: "count(//x)", Document: "a", TimeoutMS: 50,
	}})
	if code, _ := coordErr(t, data); st != http.StatusGatewayTimeout || code != httpapi.CodeTimeout {
		t.Fatalf("50 ms leader: %d %s, want 504 %s", st, data, httpapi.CodeTimeout)
	}
	if n := coord.front.Flights(); n != 0 {
		t.Fatalf("%d flights after the lone leader left, want 0", n)
	}
	select {
	case <-slow.cancelled:
	case <-time.After(time.Second):
		t.Fatal("shard call still running 1 s after the lone leader left")
	}
}

// startFileShard spins up a shard whose documents are file-backed, so
// POST /reload can re-read them.
func startFileShard(t *testing.T, docs map[string]string) *httptest.Server {
	t.Helper()
	dir := t.TempDir()
	cat := catalog.New()
	for name, src := range docs {
		p := filepath.Join(dir, name+".xml")
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := cat.OpenMemFile(name, p); err != nil {
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
	return ts
}

// startFileCluster is startCluster over file-backed shards.
func startFileCluster(t *testing.T, placement []map[string]string, cfg Config) *Coordinator {
	t.Helper()
	spec := TopologySpec{Generation: 1}
	for i, docs := range placement {
		ts := startFileShard(t, docs)
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
	return coord
}

// TestCoordReloadFanOutAggregates: POST /reload?document=* reaches every
// document's owning shard once, reports each document's new generation,
// and aggregates the rows per shard.
func TestCoordReloadFanOutAggregates(t *testing.T) {
	coord := startFileCluster(t, []map[string]string{
		{"a": smallDoc(3)},
		{"b": smallDoc(5), "c": smallDoc(2)},
	}, Config{})
	h := coord.Handler()

	r := httptest.NewRequest(http.MethodPost, "/reload?document=*", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("reload: %d (%s)", w.Code, w.Body.String())
	}
	var resp struct {
		Documents []ReloadDocStatus   `json:"documents"`
		Shards    []ReloadShardStatus `json:"shards"`
		Errors    int                 `json:"errors"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Errors != 0 {
		t.Fatalf("reload errors: %+v", resp.Documents)
	}
	if len(resp.Documents) != 3 || len(resp.Shards) != 2 {
		t.Fatalf("documents/shards = %d/%d, want 3/2", len(resp.Documents), len(resp.Shards))
	}
	owner := map[string]string{}
	for _, d := range resp.Documents {
		if d.Generation != 2 || d.Error != "" {
			t.Fatalf("doc %s: generation %d, error %q; want 2 and none", d.Document, d.Generation, d.Error)
		}
		owner[d.Document] = d.Shard
	}
	if owner["b"] != owner["c"] || owner["a"] == owner["b"] {
		t.Fatalf("owners = %v, want b and c on one shard, a on the other", owner)
	}
	want := map[string]int{owner["a"]: 1, owner["b"]: 2}
	for _, s := range resp.Shards {
		if s.Documents != want[s.Shard] || s.Errors != 0 {
			t.Fatalf("shard %s: documents=%d errors=%d, want %d/0", s.Shard, s.Documents, s.Errors, want[s.Shard])
		}
	}
	var raw map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 3 {
		t.Fatalf("reload answer keys = %v, want documents, shards, errors", raw)
	}
}
