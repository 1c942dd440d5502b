package cluster

import (
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"natix/internal/chaos"
	"natix/internal/httpapi"
	"natix/internal/server"
)

func hostOf(t *testing.T, rawURL string) string {
	t.Helper()
	u, err := url.Parse(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

// TestCoordinatorChaosDropRetriesThenPartial injects a 100% connection-drop
// fault on one shard's endpoint and checks both halves of the failure
// contract: the shard client burns its full retry budget on the transport
// error, and the partial envelope names exactly the documents that shard
// owed.
func TestCoordinatorChaosDropRetriesThenPartial(t *testing.T) {
	plan := chaos.New(42)
	coord, shards := startCluster(t, []map[string]string{
		{"alpha": xdoc("a1")},
		{"beta": xdoc("b1"), "delta": xdoc("dd")},
	}, Config{WrapTransport: plan.ShardTransport})
	h := coord.Handler()
	plan.Set(chaos.SiteShardDrop, 1)
	plan.SetShardHost(chaos.SiteShardDrop, hostOf(t, shards[1].URL))

	// Single document on the faulted shard: the client retries the
	// transport error maxRetries times before the coordinator gives up.
	before := plan.Injected(chaos.SiteShardDrop)
	status, data := postCoord(t, h, QueryRequest{QueryRequest: server.QueryRequest{Query: "//x", Document: "beta"}})
	if status != http.StatusBadGateway {
		t.Fatalf("status %d: %s", status, data)
	}
	if code, _ := coordErr(t, data); code != httpapi.CodeShardUnreachable {
		t.Fatalf("code %s", code)
	}
	if got := plan.Injected(chaos.SiteShardDrop) - before; got != 3 {
		t.Fatalf("injected %d drops for one query, want 3 (1 try + 2 retries)", got)
	}

	// The healthy shard is untouched by the host-filtered fault.
	status, data = postCoord(t, h, QueryRequest{QueryRequest: server.QueryRequest{Query: "//x", Document: "alpha"}})
	if status != http.StatusOK {
		t.Fatalf("healthy shard: status %d: %s", status, data)
	}

	// Wildcard with AllowPartial: explicit partial envelope, the faulted
	// shard's documents listed, the healthy slice answered.
	status, data = postCoord(t, h, QueryRequest{
		QueryRequest: server.QueryRequest{Query: "//x", Document: "*"},
		AllowPartial: true,
	})
	if status != http.StatusOK {
		t.Fatalf("partial status %d: %s", status, data)
	}
	qr := decodeCoord(t, data)
	if !qr.Partial || len(qr.Failed) != 2 {
		t.Fatalf("partial = %+v", qr)
	}
	for _, f := range qr.Failed {
		if f.Shard != "s1" || f.Code != httpapi.CodeShardUnreachable {
			t.Fatalf("failure = %+v", f)
		}
	}
	if got := nodeValues(qr.Result); !equalStrings(got, []string{"a1"}) {
		t.Fatalf("surviving nodes = %v", got)
	}

	// Without AllowPartial the same fault fails the whole query.
	status, data = postCoord(t, h, QueryRequest{QueryRequest: server.QueryRequest{Query: "//x", Document: "*"}})
	if status != http.StatusBadGateway {
		t.Fatalf("non-partial status %d: %s", status, data)
	}
}

// TestCoordinatorChaos503Passthrough injects structured 503s on shard calls
// and checks the coordinator retries them (they carry a retry_after_ms
// hint) and, once the budget is spent, passes the shard's own envelope
// through.
func TestCoordinatorChaos503Passthrough(t *testing.T) {
	plan := chaos.New(7)
	coord, _ := startCluster(t, []map[string]string{
		{"alpha": xdoc("a1")},
	}, Config{WrapTransport: plan.ShardTransport})
	plan.Set(chaos.SiteShard503, 1)

	before := plan.Injected(chaos.SiteShard503)
	status, data := postCoord(t, coord.Handler(), QueryRequest{QueryRequest: server.QueryRequest{Query: "//x", Document: "alpha"}})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", status, data)
	}
	code, msg := coordErr(t, data)
	if code != "injected_fault" || !strings.Contains(msg, "shard s0") {
		t.Fatalf("envelope = %s %q, want the shard's injected_fault attributed to s0", code, msg)
	}
	if got := plan.Injected(chaos.SiteShard503) - before; got != 3 {
		t.Fatalf("injected %d 503s for one query, want 3 (1 try + 2 retries)", got)
	}
}

// TestCoordinatorChaosLatencyStillAnswers injects latency on every shard
// call; delayed is not broken.
func TestCoordinatorChaosLatencyStillAnswers(t *testing.T) {
	plan := chaos.New(3).SetLatency(2 * time.Millisecond)
	coord, _ := startCluster(t, []map[string]string{
		{"alpha": xdoc("a1")},
		{"beta": xdoc("b1")},
	}, Config{WrapTransport: plan.ShardTransport})
	plan.Set(chaos.SiteShardLatency, 1)

	status, data := postCoord(t, coord.Handler(), QueryRequest{
		QueryRequest: server.QueryRequest{Query: "//x", Document: "*"},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	qr := decodeCoord(t, data)
	if got := nodeValues(qr.Result); !equalStrings(got, []string{"a1", "b1"}) {
		t.Fatalf("nodes = %v", got)
	}
	if plan.Injected(chaos.SiteShardLatency) == 0 {
		t.Fatal("latency site never tripped")
	}
}
