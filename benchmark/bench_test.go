package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// smallSizes keeps every workload's shape (same query sets, same mix) on
// inputs small enough for the whole set to run inside `go test`.
var smallSizes = sizes{
	NavElements: 1500, NavFanout: 10,
	Q2Elements: 200, Q2Fanout: 6,
	DBLPPublications: 300, DBLPBufferDivisor: 8,

	ServeDocs: 3, ServeElements: 1200, ServeFanout: 6,
	ServeTags: 32, ServeSkew: 1.5,
	ServeQueries: 64, ServeZipfS: 1.2,
	ServeReloadEvery: 40, ServeCacheEntries: 1024, ServeWarmOps: 60,

	ClusterShards: 4, ClusterDocs: 8, ClusterElements: 600,
	ClusterQueries: 32, ClusterWarmOps: 20,

	LibWarmOps: 1,
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from `go run . -spec`; regenerate it")
	}
}

func TestSpecWithinContract(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadSpecs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadSpecs {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	setup := false
	for _, m := range endToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		name(m.Name)
	}
}

// TestEveryWorkload runs each workload untraced and traced on small inputs
// and checks that every answer verifies, that every metric of the spec is
// emitted exactly once, and that nothing leaks.
func TestEveryWorkload(t *testing.T) {
	start := time.Now()
	defer func(d time.Duration) { probeBudget = d }(probeBudget)
	probeBudget = 20 * time.Millisecond
	defer func(d time.Duration) { setupBudget = d }(setupBudget)
	setupBudget = 0
	for _, ws := range workloadSpecs {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{
				seed: 7, window: 200 * time.Millisecond, trace: trace,
				outDir: t.TempDir(), sizes: smallSizes,
			}
			res, err := runWorkload(ws.Name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempt == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d failures=%v trouble=%q",
					ws.Name, trace, res.Correct, res.Attempt, res.Failed, res.Failures, res.Trouble)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
				// The store is entered where it should be and nowhere else;
				// the thresholds that depend on the calibrated sizes are
				// checked by `-workload all`, not here.
				misses := res.metric("store.buffer_misses_per_op")
				switch ws.Name {
				case wLibDBLPStore:
					if misses.Value <= 0 {
						t.Errorf("%s: store.buffer_misses_per_op = %v, want > 0", ws.Name, misses.Value)
					}
				case wLibNavMem, wCompileCorpus, wClusterScatter:
					if misses.Value != 0 {
						t.Errorf("%s: store.buffer_misses_per_op = %v, want 0", ws.Name, misses.Value)
					}
				}
				if _, err := os.Stat(res.TraceOut); err != nil {
					t.Errorf("%s: span file: %v", ws.Name, err)
				}
			}
			count := map[string]int{}
			for _, m := range res.Metrics {
				count[m.Name]++
			}
			for _, sp := range specs {
				if count[sp.Name] != 1 {
					t.Errorf("%s trace=%v: metric %s emitted %d times", ws.Name, trace, sp.Name, count[sp.Name])
				}
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, spec lists %d", ws.Name, trace, len(res.Metrics), len(specs))
			}
			if !trace {
				for _, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", ws.Name, m.Name, m.Value)
					}
				}
			}
		}
	}
	t.Logf("every workload, untraced and traced: %v", time.Since(start))
}
