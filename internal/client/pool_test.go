package client

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// startCountingServer serves a trivial /documents endpoint and counts every
// TCP connection the clients open against it.
func startCountingServer(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"documents":[]}`)
	}))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, &conns
}

func TestPooledClientReusesConnections(t *testing.T) {
	ts, conns := startCountingServer(t)
	const calls = 32

	// Pooled: sequential calls ride one keep-alive connection.
	pooled := New(ts.URL, 1)
	pooled.HTTPClient = &http.Client{Transport: Pool{}.Transport()}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < calls; i++ {
		if _, err := pooled.Documents(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("pooled client opened %d connections for %d sequential calls, want 1", got, calls)
	}

	// Keep-alives disabled: every call dials fresh — the failure mode the
	// pool exists to prevent under coordinator fan-out.
	conns.Store(0)
	fresh := New(ts.URL, 1)
	fresh.HTTPClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for i := 0; i < calls; i++ {
		if _, err := fresh.Documents(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := conns.Load(); got != calls {
		t.Fatalf("keep-alive-less client opened %d connections for %d calls, want %d", got, calls, calls)
	}
}

func TestPoolDefaultsAndCaps(t *testing.T) {
	tr := Pool{}.Transport()
	if tr.MaxIdleConnsPerHost != 16 || tr.MaxConnsPerHost != 64 {
		t.Fatalf("default pool = idle %d / max %d, want 16 / 64", tr.MaxIdleConnsPerHost, tr.MaxConnsPerHost)
	}
	if tr.MaxIdleConns != 0 {
		t.Fatalf("MaxIdleConns = %d: the global cap would throttle wide fleets", tr.MaxIdleConns)
	}
	// Negative MaxConnsPerHost means unlimited (http.Transport's zero).
	if tr := (Pool{MaxConnsPerHost: -1}).Transport(); tr.MaxConnsPerHost != 0 {
		t.Fatalf("unlimited pool MaxConnsPerHost = %d, want 0", tr.MaxConnsPerHost)
	}
	if tr := (Pool{MaxIdleConnsPerHost: 3, MaxConnsPerHost: 5}).Transport(); tr.MaxIdleConnsPerHost != 3 || tr.MaxConnsPerHost != 5 {
		t.Fatal("explicit pool limits not honored")
	}
}

func TestPoolBoundsConcurrentConnections(t *testing.T) {
	// MaxConnsPerHost=2 with 8 concurrent slow calls: the transport must
	// queue rather than open 8 sockets.
	var conns atomic.Int64
	release := make(chan struct{})
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		fmt.Fprint(w, `{"documents":[]}`)
	}))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	cl := New(ts.URL, 1)
	cl.HTTPClient = &http.Client{Transport: Pool{MaxConnsPerHost: 2}.Transport()}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, err := cl.Documents(ctx)
			errs <- err
		}()
	}
	// Give every goroutine time to dial if the bound were broken.
	time.Sleep(100 * time.Millisecond)
	close(release)
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := conns.Load(); got > 2 {
		t.Fatalf("pool opened %d connections with MaxConnsPerHost=2", got)
	}
}
