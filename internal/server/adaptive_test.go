package server

import (
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"natix/internal/catalog"
	"natix/internal/httpapi"
	"natix/internal/metrics"
	"natix/internal/plancache"
)

// occupyWorker posts a heavy query in the background and blocks until a
// worker picked it up, so subsequent requests deterministically queue (and
// coalesce) behind it. Returns a channel delivering the occupier's status.
func occupyWorker(t *testing.T, s *Server, post func(QueryRequest) (int, []byte)) chan int {
	t.Helper()
	before := s.Counters().Executed
	release := make(chan int, 1)
	go func() {
		st, _ := post(QueryRequest{Query: heavyQuery, Document: "d"})
		release <- st
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Counters().Executed == before {
		if time.Now().After(deadline) {
			t.Error("occupying query never started")
			return release
		}
		time.Sleep(time.Millisecond)
	}
	return release
}

// waitFlights blocks until n flights are registered (the occupier's own
// flight counts as one).
func waitFlights(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.front.flights.Len() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d flights registered", s.front.flights.Len(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitCoalesced blocks until the server has coalesced want joins.
func waitCoalesced(t *testing.T, s *Server, base, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Counters().Coalesced-base < want {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced %d of %d joins", s.Counters().Coalesced-base, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleflightCoalesces: concurrent identical requests execute once and
// every waiter receives the identical result.
func TestSingleflightCoalesces(t *testing.T) {
	cat := catalog.New()
	if err := cat.OpenMem("d", strings.NewReader(heavyDoc(2000))); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestService(t, Config{
		Catalog:        cat,
		Cache:          plancache.New(32, 0),
		Workers:        1,
		QueueDepth:     16,
		DefaultTimeout: 30 * time.Second,
	})
	post := func(req QueryRequest) (int, []byte) { return postQuery(t, ts, req) }

	// Occupy the single worker so the duplicate batch must queue — and
	// therefore coalesce — behind it.
	release := occupyWorker(t, s, post)

	const dupQuery = "count(//x)"
	const clients = 8
	exec0 := s.Counters().Executed
	coal0 := s.Counters().Coalesced

	type reply struct {
		status int
		qr     *QueryResponse
	}
	replies := make(chan reply, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, data := post(QueryRequest{Query: dupQuery, Document: "d"})
			replies <- reply{st, decodeQuery(t, data)}
		}()
	}
	// All but the one leader must have joined before the worker frees.
	waitCoalesced(t, s, coal0, clients-1)
	wg.Wait()
	<-release
	close(replies)

	var coalesced int
	var first *QueryResponse
	for r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("status %d", r.status)
		}
		if r.qr.Coalesced {
			coalesced++
		}
		if first == nil {
			first = r.qr
			continue
		}
		if !reflect.DeepEqual(r.qr.Result, first.Result) || r.qr.Generation != first.Generation {
			t.Fatalf("coalesced results diverge: %+v vs %+v", r.qr.Result, first.Result)
		}
	}
	if coalesced != clients-1 {
		t.Fatalf("coalesced responses = %d, want %d", coalesced, clients-1)
	}
	// Exactly one execution beyond the already-counted occupier: the whole
	// duplicate batch shared one engine run.
	if got := s.Counters().Executed - exec0; got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
}

// TestWaiterCancelVsLeader: a joiner timing out leaves the flight without
// killing it; the remaining waiter still gets the full result.
func TestWaiterCancelVsLeader(t *testing.T) {
	cat := catalog.New()
	// 4000 elements keep the occupier busy about four times the joiner's
	// 60 ms deadline; at 2000 it finished inside it on a fast machine.
	if err := cat.OpenMem("d", strings.NewReader(heavyDoc(4000))); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestService(t, Config{
		Catalog:        cat,
		Cache:          plancache.New(32, 0),
		Workers:        1,
		QueueDepth:     16,
		DefaultTimeout: 30 * time.Second,
	})
	post := func(req QueryRequest) (int, []byte) { return postQuery(t, ts, req) }
	release := occupyWorker(t, s, post)
	coal0 := s.Counters().Coalesced

	const q = "count(//x)"
	leaderDone := make(chan *QueryResponse, 1)
	leaderStatus := make(chan int, 1)
	go func() {
		st, data := post(QueryRequest{Query: q, Document: "d"})
		leaderStatus <- st
		if st == http.StatusOK {
			leaderDone <- decodeQuery(t, data)
		} else {
			leaderDone <- nil
		}
	}()
	// Wait for the leader's own flight (not the occupier's) to register,
	// then join with a deadline that expires while the occupier still
	// holds the worker.
	waitFlights(t, s, 2)
	st, data := post(QueryRequest{Query: q, Document: "d", TimeoutMS: 60})
	if st != http.StatusGatewayTimeout || errCode(t, data) != httpapi.CodeTimeout {
		t.Fatalf("short-deadline joiner: %d %s", st, data)
	}
	if got := s.Counters().Coalesced - coal0; got != 1 {
		t.Fatalf("coalesced = %d, want 1 (the cancelled joiner)", got)
	}
	// The joiner's departure must not have cancelled the leader.
	<-release
	if st := <-leaderStatus; st != http.StatusOK {
		t.Fatalf("leader finished %d after joiner cancel", st)
	}
	if qr := <-leaderDone; qr == nil || qr.Result.Number == nil || *qr.Result.Number != 4000 {
		t.Fatalf("leader result corrupted: %+v", qr)
	}
}

// TestLeaderErrorFanOut: a failing leader execution propagates the same
// typed error to every coalesced waiter.
func TestLeaderErrorFanOut(t *testing.T) {
	cat := catalog.New()
	if err := cat.OpenMem("d", strings.NewReader(heavyDoc(2000))); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestService(t, Config{
		Catalog:        cat,
		Cache:          plancache.New(32, 0),
		Workers:        1,
		QueueDepth:     16,
		DefaultTimeout: 30 * time.Second,
	})
	post := func(req QueryRequest) (int, []byte) { return postQuery(t, ts, req) }
	release := occupyWorker(t, s, post)
	coal0 := s.Counters().Coalesced

	// Compiles only in the worker, where it fails typed: unknown function.
	const badQuery = "no-such-function(//x)"
	const clients = 4
	var statuses [clients]int
	var codes [clients]string
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, data := post(QueryRequest{Query: badQuery, Document: "d"})
			statuses[i], codes[i] = st, errCode(t, data)
		}(i)
	}
	waitCoalesced(t, s, coal0, clients-1)
	wg.Wait()
	<-release
	for i := 0; i < clients; i++ {
		if statuses[i] != http.StatusBadRequest || codes[i] != httpapi.CodeParseError {
			t.Fatalf("waiter %d: %d %s, want 400 %s", i, statuses[i], codes[i], httpapi.CodeParseError)
		}
	}
}

// TestReloadRacingFlight: a reload landing while a coalesced flight is
// queued or executing must not tear the result — every waiter of one
// flight sees one consistent (generation, result) pair, and requests
// arriving after the reload execute against the new generation under a new
// flight key.
func TestReloadRacingFlight(t *testing.T) {
	// File-backed so POST /reload can re-read the source (an OpenMem reader
	// is consumed on first parse).
	path := filepath.Join(t.TempDir(), "doc.xml")
	if err := os.WriteFile(path, []byte(heavyDoc(2000)), 0o644); err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	if err := cat.OpenMemFile("d", path); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestService(t, Config{
		Catalog:        cat,
		Cache:          plancache.New(32, 0),
		Workers:        1,
		QueueDepth:     16,
		DefaultTimeout: 30 * time.Second,
	})
	post := func(req QueryRequest) (int, []byte) { return postQuery(t, ts, req) }
	release := occupyWorker(t, s, post)
	coal0 := s.Counters().Coalesced

	const q = "count(//x)"
	const clients = 6
	gens := make(chan uint64, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, data := post(QueryRequest{Query: q, Document: "d"})
			if st != http.StatusOK {
				t.Errorf("status %d: %s", st, data)
				gens <- 0
				return
			}
			gens <- decodeQuery(t, data).Generation
		}()
	}
	waitCoalesced(t, s, coal0, clients-1)

	// Reload while the coalesced flight is still queued behind the
	// occupier: the generation bumps under it.
	resp, err := ts.Client().Post(ts.URL+"/reload?document=d", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d", resp.StatusCode)
	}

	<-release
	wg.Wait()
	close(gens)
	var seen []uint64
	for g := range gens {
		seen = append(seen, g)
	}
	first := seen[0]
	for _, g := range seen {
		if g != first {
			t.Fatalf("waiters of one flight saw different generations: %v", seen)
		}
	}

	// A request arriving after the reload keys a new flight on the new
	// generation and must report it.
	st, data := post(QueryRequest{Query: q, Document: "d"})
	if st != http.StatusOK {
		t.Fatalf("post-reload query: %d %s", st, data)
	}
	if qr := decodeQuery(t, data); qr.Generation != 2 {
		t.Fatalf("post-reload generation = %d, want 2", qr.Generation)
	}
}

// TestNormalizedCacheSharing: syntactic variants served over HTTP share one
// plan-cache entry, visible in the normalized-hits counter on /metrics and
// in identical results.
func TestNormalizedCacheSharing(t *testing.T) {
	metrics.Enable()
	defer metrics.Disable()
	cat := catalog.New()
	if err := cat.OpenMem("d", strings.NewReader("<r><a>1</a><a>2</a></r>")); err != nil {
		t.Fatal(err)
	}
	cache := plancache.New(32, 0)
	_, ts := newTestService(t, Config{Catalog: cat, Cache: cache})

	variants := []string{"//a", "/descendant-or-self::node()/child::a", " // a ", "descendant-or-self::node()/child::a"}
	norm0 := scrapeCounter(t, ts, "natix_plancache_normalized_hits_total")
	var first *QueryResponse
	for i, q := range variants {
		st, data := postQuery(t, ts, QueryRequest{Query: q, Document: "d"})
		if st != http.StatusOK {
			t.Fatalf("%q: %d %s", q, st, data)
		}
		qr := decodeQuery(t, data)
		if i == 0 {
			first = qr
			continue
		}
		// Variants 1 and 2 share the absolute canonical form "/descendant::a"
		// with the first request; variant 3 is relative ("descendant::a"),
		// a distinct plan that happens to yield the same result at the root.
		if i < 3 && !qr.Cached {
			t.Fatalf("variant %q missed the cache", q)
		}
		if !reflect.DeepEqual(qr.Result, first.Result) {
			t.Fatalf("variant %q diverged: %+v vs %+v", q, qr.Result, first.Result)
		}
	}
	// Absolute and relative //a differ semantically — the last variant is
	// relative, evaluated at the root, so it shares results but not the
	// absolute entries' cache key.
	if cache.Len() != 2 {
		t.Fatalf("cache entries = %d, want 2 (absolute + relative canonical forms)", cache.Len())
	}
	if got := scrapeCounter(t, ts, "natix_plancache_normalized_hits_total") - norm0; got < 2 {
		t.Fatalf("normalized hits = %d, want >= 2", got)
	}
}

// TestJoinerOutlivesShortLeader: a joiner never inherits the leader's
// deadline. The leader gives up after 50 ms and gets its own 504; the
// execution it started keeps running for the 5 s joiner, who gets the
// answer.
func TestJoinerOutlivesShortLeader(t *testing.T) {
	cat := catalog.New()
	if err := cat.OpenMem("d", strings.NewReader(heavyDoc(2000))); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestService(t, Config{
		Catalog:        cat,
		Cache:          plancache.New(32, 0),
		Workers:        1,
		QueueDepth:     16,
		DefaultTimeout: 30 * time.Second,
	})
	post := func(req QueryRequest) (int, []byte) { return postQuery(t, ts, req) }
	release := occupyWorker(t, s, post)
	coal0 := s.Counters().Coalesced

	const q = "count(//x)"
	leader := make(chan []byte, 1)
	go func() {
		st, data := post(QueryRequest{Query: q, Document: "d", TimeoutMS: 50})
		if st != http.StatusGatewayTimeout || errCode(t, data) != httpapi.CodeTimeout {
			t.Errorf("50 ms leader: %d %s, want 504 %s", st, data, httpapi.CodeTimeout)
		}
		leader <- data
	}()
	waitFlights(t, s, 2)
	st, data := post(QueryRequest{Query: q, Document: "d", TimeoutMS: 5000})
	<-leader
	<-release
	if st != http.StatusOK {
		t.Fatalf("5 s joiner: %d %s, want 200", st, data)
	}
	if qr := decodeQuery(t, data); !qr.Coalesced || qr.Result.Number == nil || *qr.Result.Number != 2000 {
		t.Fatalf("5 s joiner: %+v, want the coalesced count 2000", qr)
	}
	if got := s.Counters().Coalesced - coal0; got != 1 {
		t.Fatalf("coalesced = %d, want 1", got)
	}
}

// TestLoneShortLeaderCancels: a leader alone on its flight still stops the
// execution when it leaves at its own deadline — the MaxTimeout bound is
// never run out. Its queued job is dropped unexecuted, and the flight is
// gone the moment the leader answers.
func TestLoneShortLeaderCancels(t *testing.T) {
	cat := catalog.New()
	if err := cat.OpenMem("d", strings.NewReader(heavyDoc(2000))); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestService(t, Config{
		Catalog:        cat,
		Workers:        1,
		QueueDepth:     16,
		DefaultTimeout: 30 * time.Second,
	})
	post := func(req QueryRequest) (int, []byte) { return postQuery(t, ts, req) }
	release := occupyWorker(t, s, post)
	exec0 := s.Counters().Executed

	st, data := post(QueryRequest{Query: "count(//x)", Document: "d", TimeoutMS: 50})
	if st != http.StatusGatewayTimeout || errCode(t, data) != httpapi.CodeTimeout {
		t.Fatalf("50 ms leader: %d %s, want 504 %s", st, data, httpapi.CodeTimeout)
	}
	if n := s.front.flights.Len(); n != 1 {
		t.Fatalf("%d flights after the lone leader left, want 1 (the occupier's)", n)
	}
	<-release
	drained := make(chan struct{})
	go func() { s.front.jobs.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("the abandoned job never left the queue")
	}
	if got := s.Counters().Executed - exec0; got != 0 {
		t.Fatalf("abandoned job executed %d times, want 0", got)
	}
}
