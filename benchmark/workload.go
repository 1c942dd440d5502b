package main

import (
	"fmt"
	"time"
)

// sizes are the input sizes of the five workloads. They are fixed constants,
// calibrated once on a 2-core machine so that a library op takes 5-100 ms
// and at least 300 ops finish in the 20 s window; they are never derived
// from the machine at run time.
type sizes struct {
	NavElements, NavFanout int // q1, q3, q4 document (paper section 6.2.1)
	Q2Elements, Q2Fanout   int // q2 document, sized so q2 costs about as much as q1
	DBLPPublications       int
	DBLPBufferDivisor      int // buffer = image pages / divisor

	ServeDocs, ServeElements, ServeFanout int
	ServeTags                             int
	ServeSkew                             float64
	ServeQueries                          int // logical queries, two spellings each
	ServeZipfS                            float64
	ServeReloadEvery                      int // the client reloads after this many queries
	ServeCacheEntries                     int // holds every (document, query) plan, so misses come from reloads
	ServeWarmOps                          int // inside setup

	ClusterShards, ClusterDocs, ClusterElements int
	ClusterQueries                              int
	ClusterWarmOps                              int

	LibWarmOps int
}

var defaultSizes = sizes{
	NavElements: 10000, NavFanout: 10,
	Q2Elements: 700, Q2Fanout: 6,
	DBLPPublications: 3000, DBLPBufferDivisor: 8,

	ServeDocs: 8, ServeElements: 8000, ServeFanout: 6,
	ServeTags: 32, ServeSkew: 1.5,
	ServeQueries: 64, ServeZipfS: 1.2,
	ServeReloadEvery: 800, ServeCacheEntries: 1024, ServeWarmOps: 2000,

	ClusterShards: 4, ClusterDocs: 16, ClusterElements: 4000,
	ClusterQueries: 32, ClusterWarmOps: 200,

	LibWarmOps: 3,
}

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed   int64
	window time.Duration
	trace  bool
	outDir string
	sizes  sizes
}

// shardQueueDepth is the admission queue of each shard of
// cluster_scatter_mem: it holds the widest fan-out, so a wildcard is never
// refused and retried behind the coordinator's back (a 250 ms backoff that
// made ops_per_s bimodal at the servers' default of 4). Like the 1024-entry
// plan cache of serve_zipf_store (ServeCacheEntries) it departs from the
// servers' defaults; both are recorded in the header.
func (c runConfig) shardQueueDepth() int { return c.sizes.ClusterDocs }

// workload is one named set of inputs plus the closed loop that drives it.
type workload interface {
	// setup builds every input from the seed, starts what the workload runs
	// against and warms it up with a fixed number of ops. It returns how
	// long that took, not counting the reference answers (which belong to
	// the benchmark, not to the system).
	setup() (time.Duration, error)
	// run measures one closed-loop window; a nil recorder is the untraced
	// run.
	run(d time.Duration, rec *recorder) *window
	// settle brings the workload to the same quiescent state after every
	// window, so that heap_live_mb reads what the system keeps (documents,
	// buffers, cached plans, indexes) and not where the window happened to
	// stop.
	settle() error
	// layers derives the per-layer metrics after a traced window.
	layers(traced *window, rec *recorder, out metricSet) error
	// teardown stops what setup started, removes its files and fails on
	// leaked pins or handles.
	teardown() error
}

func newWorkload(name string, cfg runConfig) (workload, error) {
	switch name {
	case wLibNavMem:
		return newLibNav(cfg), nil
	case wLibDBLPStore:
		return newLibDBLP(cfg), nil
	case wCompileCorpus:
		return newCompileCorpus(cfg), nil
	case wServeZipfStore:
		return newServeZipf(cfg), nil
	case wClusterScatter:
		return newClusterScatter(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
