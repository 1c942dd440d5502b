package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"natix/internal/server"
)

// TestCoordinatorConcurrentOrdering hammers a 4-shard coordinator with 64
// concurrent clients mixing single-document, list, and wildcard queries
// while probes and a topology re-install run underneath, and asserts every
// wildcard answer comes back in global document order with the full merged
// node-set. Run under -race this doubles as the coordinator's data-race
// gate.
func TestCoordinatorConcurrentOrdering(t *testing.T) {
	const docsN = 16
	corpus := map[string]string{}
	names := make([]string, 0, docsN)
	var wantAll []string
	for i := 0; i < docsN; i++ {
		name := fmt.Sprintf("d%02d", i)
		corpus[name] = xdoc(name+"-1", name+"-2")
		names = append(names, name)
	}
	sort.Strings(names)
	for _, n := range names {
		wantAll = append(wantAll, n+"-1", n+"-2")
	}
	topo, err := NewTopology(testSpec("s0", "s1", "s2", "s3"))
	if err != nil {
		t.Fatal(err)
	}
	byShard := topo.Place(names)
	placement := make([]map[string]string, 4)
	for i, id := range topo.ShardIDs() {
		placement[i] = map[string]string{}
		for _, n := range byShard[id] {
			placement[i][n] = corpus[n]
		}
	}
	// A short probe interval keeps the prober racing the queries for real.
	coord, shards := startCluster(t, placement, Config{ProbeInterval: 5 * time.Millisecond})
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	const clients = 64
	const perClient = 8
	var wg sync.WaitGroup
	var failures atomic.Int64
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				var doc string
				switch i % 3 {
				case 0:
					doc = "*"
				case 1:
					doc = names[(c+i)%len(names)]
				default:
					doc = names[c%len(names)] + "," + names[(c+5)%len(names)]
				}
				body, _ := json.Marshal(QueryRequest{
					QueryRequest: server.QueryRequest{Query: "//x", Document: doc},
				})
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					fail("client %d: %v", c, err)
					return
				}
				var qr QueryResponse
				decErr := json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if resp.StatusCode == http.StatusTooManyRequests {
					continue // admission shedding is a correct answer under load
				}
				if decErr != nil || resp.StatusCode != http.StatusOK {
					fail("client %d: doc %q: status %d err %v", c, doc, resp.StatusCode, decErr)
					return
				}
				if doc == "*" {
					if got := nodeValues(qr.Result); !equalStrings(got, wantAll) {
						fail("client %d: wildcard order broke: %v", c, got)
						return
					}
				}
			}
		}(c)
	}
	// A topology re-install mid-flight: same shard set, new generation —
	// every carry-over path races live queries and probes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		spec := TopologySpec{Generation: 2}
		for i, s := range shards {
			spec.Shards = append(spec.Shards, ShardSpec{ID: fmt.Sprintf("s%d", i), Endpoints: []string{s.URL}})
		}
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/topology", "application/json", bytes.NewReader(body))
		if err != nil {
			fail("topology reload: %v", err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fail("topology reload: status %d", resp.StatusCode)
		}
	}()
	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d client failures", n)
	}
}
