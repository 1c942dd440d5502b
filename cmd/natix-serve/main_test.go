package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"natix/internal/catalog"
	"natix/internal/dom"
	"natix/internal/store"
)

func TestParseDocSpecs(t *testing.T) {
	specs, err := parseDocSpecs([]string{"books=cat.xml", "dblp=dblp.natix"})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "books" || specs[0].Store || !specs[1].Store {
		t.Fatalf("specs = %+v", specs)
	}
	for _, bad := range [][]string{
		{},
		{"noequals"},
		{"=path"},
		{"name="},
		{"a=x.xml", "a=y.xml"},
	} {
		if _, err := parseDocSpecs(bad); err == nil {
			t.Errorf("parseDocSpecs(%q) accepted", bad)
		}
	}
}

func TestRunRejectsBadChaosSpec(t *testing.T) {
	// A malformed -chaos spec must fail startup, before anything listens:
	// a typo silently no-opping would invalidate a whole soak run.
	dir := t.TempDir()
	xmlPath := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(xmlPath, []byte("<r/>"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(options{
		addr: "127.0.0.1:0", workers: 1, queue: 1,
		timeout: time.Second, maxTimeout: time.Second,
		cacheBytes: 1 << 20,
		chaosSpec:  "http_latncy=0.2",
		args:       []string{"d=" + xmlPath},
	})
	if err == nil {
		t.Fatal("bad chaos spec accepted")
	}
	if !strings.Contains(err.Error(), "http_latncy") {
		t.Fatalf("error %v does not name the bad site", err)
	}
}

func TestRunCoordinatorFlagValidation(t *testing.T) {
	// Coordinator mode without a topology, or with document arguments,
	// must fail before anything listens.
	err := run(options{addr: "127.0.0.1:0", coordinator: true})
	if err == nil || !strings.Contains(err.Error(), "-topology") {
		t.Fatalf("missing -topology: err = %v", err)
	}
	dir := t.TempDir()
	topoPath := filepath.Join(dir, "cluster.json")
	topo := `{"generation":1,"shards":[{"id":"s0","endpoints":["http://127.0.0.1:1"]}]}`
	if err := os.WriteFile(topoPath, []byte(topo), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(options{
		addr: "127.0.0.1:0", coordinator: true, topologyPath: topoPath,
		args: []string{"d=doc.xml"},
	})
	if err == nil || !strings.Contains(err.Error(), "no documents") {
		t.Fatalf("coordinator with doc args: err = %v", err)
	}
	err = run(options{
		addr: "127.0.0.1:0", coordinator: true,
		topologyPath: filepath.Join(dir, "missing.json"),
	})
	if err == nil {
		t.Fatal("missing topology file accepted")
	}
}

func TestOpenAll(t *testing.T) {
	dir := t.TempDir()
	xmlPath := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(xmlPath, []byte("<r><x/></r>"), 0o644); err != nil {
		t.Fatal(err)
	}
	mem, err := dom.ParseString("<r><y/></r>")
	if err != nil {
		t.Fatal(err)
	}
	natixPath := filepath.Join(dir, "doc.natix")
	if err := store.Write(natixPath, mem); err != nil {
		t.Fatal(err)
	}

	cat := catalog.New()
	defer cat.CloseAll()
	specs, err := parseDocSpecs([]string{"m=" + xmlPath, "s=" + natixPath})
	if err != nil {
		t.Fatal(err)
	}
	if err := openAll(cat, specs, 16); err != nil {
		t.Fatal(err)
	}
	infos := cat.List()
	if len(infos) != 2 || infos[0].Backend != catalog.Mem || infos[1].Backend != catalog.Store {
		t.Fatalf("catalog = %+v", infos)
	}

	// A missing file fails up front, not at first query.
	bad, _ := parseDocSpecs([]string{"x=" + filepath.Join(dir, "missing.xml")})
	if err := openAll(catalog.New(), bad, 0); err == nil {
		t.Fatal("missing file accepted")
	}
}
