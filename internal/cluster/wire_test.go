package cluster

// Wire identity: a shard and a coordinator speak one error contract, so a
// client cannot tell which tier refused it. Each failure both tiers can
// produce is provoked on each, and the pair must agree on status, headers,
// envelope shape, code and retry hint — and decode to equal client errors.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"natix/internal/catalog"
	"natix/internal/client"
	"natix/internal/dom"
	"natix/internal/server"
	"natix/internal/store"
)

// answer is one recorded HTTP response.
type answer struct {
	status int
	header http.Header
	body   []byte
}

func record(h http.Handler, body string) answer {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
	return answer{w.Code, w.Result().Header, w.Body.Bytes()}
}

// decoded replays a recorded answer to the client and returns the typed
// error it decodes.
func decoded(t *testing.T, a answer) *client.Error {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		for k, v := range a.header {
			w.Header()[k] = v
		}
		w.WriteHeader(a.status)
		w.Write(a.body)
	}))
	defer ts.Close()
	cl := client.New(ts.URL, 1)
	cl.MaxRetries = -1
	_, err := cl.Query(context.Background(), &server.QueryRequest{Query: "q", Document: "d"})
	ce, ok := err.(*client.Error)
	if !ok {
		t.Fatalf("client decoded %T %v, want *client.Error", err, err)
	}
	return ce
}

// envelopeShape returns the sorted keys of the envelope and of its error
// object, plus the error object itself.
func envelopeShape(t *testing.T, body []byte) ([]string, map[string]any) {
	t.Helper()
	var env map[string]map[string]any
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("not an envelope: %s", body)
	}
	var keys []string
	for k := range env {
		keys = append(keys, k)
	}
	for k := range env["error"] {
		keys = append(keys, "error."+k)
	}
	sort.Strings(keys)
	return keys, env["error"]
}

// sameWire asserts a shard and a coordinator answer are wire-identical but
// for the message.
func sameWire(t *testing.T, what string, shard, coord answer, status int, code string) {
	t.Helper()
	if shard.status != status || coord.status != status {
		t.Fatalf("%s: status shard %d coordinator %d, want %d\nshard %s\ncoordinator %s",
			what, shard.status, coord.status, status, shard.body, coord.body)
	}
	for _, h := range []string{"Retry-After", "Content-Type"} {
		if s, c := shard.header.Get(h), coord.header.Get(h); s != c {
			t.Errorf("%s: %s shard %q coordinator %q", what, h, s, c)
		}
	}
	sk, se := envelopeShape(t, shard.body)
	ck, ce := envelopeShape(t, coord.body)
	if !reflect.DeepEqual(sk, ck) {
		t.Errorf("%s: envelope keys shard %v coordinator %v", what, sk, ck)
	}
	if se["code"] != code || ce["code"] != code {
		t.Errorf("%s: code shard %v coordinator %v, want %s", what, se["code"], ce["code"], code)
	}
	if se["retry_after_ms"] != ce["retry_after_ms"] {
		t.Errorf("%s: retry_after_ms shard %v coordinator %v", what, se["retry_after_ms"], ce["retry_after_ms"])
	}
	sd, cd := decoded(t, shard), decoded(t, coord)
	sd.Message, cd.Message = "", ""
	if *sd != *cd {
		t.Errorf("%s: client errors differ: shard %+v coordinator %+v", what, *sd, *cd)
	}
}

func TestWireIdentity(t *testing.T) {
	// The shard: one worker and one queue slot over a store document whose
	// page reads block while hold is set, so a query can occupy the worker
	// for exactly as long as the test needs.
	mem, err := dom.ParseString(smallDoc(2000))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "d.natix")
	if err := store.Write(path, mem); err != nil {
		t.Fatal(err)
	}
	var hold atomic.Bool
	release := make(chan struct{})
	cat := catalog.New()
	cat.OpenHook = func(p string, opt store.Options) (*store.Doc, error) {
		d, _, err := store.OpenFaulty(p, opt, func(int64, int) error {
			if hold.Load() {
				<-release
			}
			return nil
		})
		return d, err
	}
	if err := cat.OpenStore("d", path, store.Options{BufferPages: 2}); err != nil {
		t.Fatal(err)
	}
	defer cat.CloseAll()
	shard := server.New(server.Config{Catalog: cat, Workers: 1, QueueDepth: 1})
	sh := shard.Handler()

	// The coordinator: one inflight slot, shard calls held 300 ms.
	coord, _ := startCluster(t, []map[string]string{{"d": smallDoc(8)}},
		Config{MaxInflight: 1, WrapTransport: delayShardQueries(300 * time.Millisecond)})
	ch := coord.Handler()

	// 400: a body that names no document.
	const noDoc = `{"query":"//x"}`
	sameWire(t, "bad_request", record(sh, noDoc), record(ch, noDoc),
		http.StatusBadRequest, "bad_request")

	// Occupy the shard's worker.
	hold.Store(true)
	occupied := make(chan int, 1)
	go func() { occupied <- record(sh, `{"query":"//x","document":"d"}`).status }()
	for deadline := time.Now().Add(5 * time.Second); shard.Counters().Executed == 0; {
		if time.Now().After(deadline) {
			t.Fatal("occupying query never started")
		}
		time.Sleep(time.Millisecond)
	}

	// 504: a waiter whose own deadline passes first. The shard's job queues
	// behind the occupier (and keeps the queue slot until the worker drops
	// it); the coordinator's shard call sits in its delay.
	const short = `{"query":"count(//x)","document":"d","timeout_ms":50}`
	sameWire(t, "timeout", record(sh, short), record(ch, short),
		http.StatusGatewayTimeout, "timeout")

	// 429: the shard's queue is full; the coordinator's slot is taken.
	const other = `{"query":"count(//x) + 1","document":"d"}`
	coord.slots <- struct{}{}
	shard429, coord429 := record(sh, other), record(ch, other)
	<-coord.slots
	sameWire(t, "overloaded", shard429, coord429, http.StatusTooManyRequests, "overloaded")
	// One envelope pinned byte for byte, header included.
	if got, want := string(coord429.body), `{"error":{"code":"overloaded","message":"coordinator at max inflight (1)","retry_after_ms":250}}`+"\n"; got != want {
		t.Errorf("coordinator 429 body\n got %s\nwant %s", got, want)
	}
	if got := coord429.header.Get("Retry-After"); got != "1" {
		t.Errorf("coordinator 429 Retry-After = %q, want 1", got)
	}

	// 503: both tiers draining.
	close(release)
	if st := <-occupied; st != http.StatusOK {
		t.Fatalf("occupying query: %d", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := shard.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := coord.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	const q = `{"query":"count(//x)","document":"d"}`
	sameWire(t, "shutting_down", record(sh, q), record(ch, q),
		http.StatusServiceUnavailable, "shutting_down")
}

// frontAnswer is what TestFrontEndpointsMatch compares of one answer.
type frontAnswer struct {
	status     int
	code       string // the error envelope's code, "" for any other body
	retryAfter string
}

func callFront(t *testing.T, base, method, path string) frontAnswer {
	t.Helper()
	var body io.Reader
	if path == "/query" && method == http.MethodPost {
		body = strings.NewReader(`{"query":"count(//x)","document":"d"}`)
	}
	req, err := http.NewRequest(method, base+path, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	json.Unmarshal(data, &env) // a non-JSON body (/metrics) has no code
	return frontAnswer{resp.StatusCode, env.Error.Code, resp.Header.Get("Retry-After")}
}

// TestFrontEndpointsMatch: a shard and a coordinator run one front, so
// every shared endpoint answers its method, and a wrong one, alike on both
// tiers: the same status, envelope code and Retry-After, while serving and
// while draining. The health bodies keep their per-tier fields, so bodies
// are not compared.
func TestFrontEndpointsMatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.xml")
	if err := os.WriteFile(path, []byte(smallDoc(4)), 0o644); err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	if err := cat.OpenMemFile("d", path); err != nil {
		t.Fatal(err)
	}
	defer cat.CloseAll()
	shard := server.New(server.Config{Catalog: cat})
	shardTS := httptest.NewServer(shard.Handler())
	defer shardTS.Close()
	coord := startFileCluster(t, []map[string]string{{"d": smallDoc(4)}}, Config{})
	coordTS := httptest.NewServer(coord.Handler())
	defer coordTS.Close()

	paths := []string{"/query", "/documents", "/reload?document=d", "/healthz",
		"/healthz/live", "/healthz/ready", "/buildinfo", "/metrics"}
	compare := func(phase string) {
		for _, p := range paths {
			for _, m := range []string{http.MethodGet, http.MethodPost} {
				s, c := callFront(t, shardTS.URL, m, p), callFront(t, coordTS.URL, m, p)
				if s != c {
					t.Errorf("%s: %s %s: shard %+v, coordinator %+v", phase, m, p, s, c)
				}
			}
		}
	}
	compare("serving")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := shard.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := coord.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	compare("draining")
}
