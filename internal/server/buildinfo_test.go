package server

import (
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"natix"
	"natix/internal/catalog"
	"natix/internal/plancache"
	"natix/internal/store"
)

func TestBuildInfoEndpoint(t *testing.T) {
	cat := catalog.New()
	if err := cat.OpenMem("d", strings.NewReader("<r/>")); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestService(t, Config{
		Catalog: cat, Cache: plancache.New(16, 0), PathIndex: true,
	})

	resp, err := http.Get(ts.URL + "/buildinfo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var bi BuildInfo
	if err := json.NewDecoder(resp.Body).Decode(&bi); err != nil {
		t.Fatal(err)
	}
	if bi.Version != natix.Version || bi.GoVersion != runtime.Version() {
		t.Fatalf("identity = %+v", bi)
	}
	if bi.StoreFormatVersion != store.FormatVersion {
		t.Fatalf("store format = %d, want %d", bi.StoreFormatVersion, store.FormatVersion)
	}
	if bi.Role != "shard" || bi.GOMAXPROCS < 1 {
		t.Fatalf("role/procs = %+v", bi)
	}
	// Features mirror the serving config — the homogeneity check a cluster
	// operator runs across shards must see what the shard actually does.
	if want := (BuildFeatures{Batch: true, PathIndex: true}); bi.Features != want {
		t.Fatalf("features = %+v, want %+v", bi.Features, want)
	}

	// POST is rejected; /buildinfo is read-only.
	post, err := http.Post(ts.URL+"/buildinfo", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status %d", post.StatusCode)
	}
}
