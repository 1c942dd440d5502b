// Command benchmark is the repository's one benchmark: five named
// workloads, eight end-to-end metrics measured with tracing off, and
// per-layer metrics measured from outside the engine in a traced run. See
// README.md in this directory; BENCHMARK.json at the repository root is the
// machine-readable contract (`-spec` prints it).
//
// The driver's form, one workload per process, one JSON object as the last
// line of standard output:
//
//	bash benchmark/run.sh --workload lib_nav_mem --seed 1 --seconds 10 --trace 0
//
// Everything at once, for people:
//
//	cd benchmark && go run . -workload all -seed 1 -json
//	cd benchmark && go run . -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// procs is the benchmark's GOMAXPROCS. Every workload is one closed loop;
// the service workloads run their client, server, shards and coordinator in
// this one process. On one P they take turns without waking threads across
// the two cores of the shared sandbox, which is what made their timings
// spread by 30% over ten runs of the same code; the library loops are twice
// as steady on one P as on two (the collector no longer runs beside them).
// What is measured is the work an op costs, not how well it spreads.
const procs = 1

// result is one run of one workload.
type result struct {
	Workload string   `json:"workload"`
	Trace    bool     `json:"trace"`
	Correct  bool     `json:"correct"`
	Attempt  int64    `json:"attempted"`
	Failed   int64    `json:"failed"`
	Failures []string `json:"failures,omitempty"` // "query id x count"
	Metrics  []metric `json:"metrics"`
	Trouble  string   `json:"trouble,omitempty"` // teardown or leak finding
	TraceOut string   `json:"trace_file,omitempty"`
}

// metric returns the named metric, zero when the run did not report it.
func (r *result) metric(name string) metric {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m
		}
	}
	return metric{}
}

// setup_s is the median of a run's set-ups. One rule decides how many stand
// behind it: set up until setupBudget is spent, at least minSetups and at
// most maxSetups times, so the median of a 20 ms set-up rests on 15 samples
// and that of a 2 s set-up on 3. The tests shorten the budget.
const (
	minSetups = 3
	maxSetups = 15
)

var setupBudget = time.Second

// runWorkload sets the workload up repeatedly, measures it on the last
// set-up, tears it down and checks for leaks.
func runWorkload(name string, cfg runConfig) (*result, error) {
	w, err := newWorkload(name, cfg)
	if err != nil {
		return nil, err
	}
	goroutines := runtime.NumGoroutine()
	var setups []time.Duration
	var spent time.Duration
	for i := 0; i < minSetups || (spent < setupBudget && i < maxSetups); i++ {
		if i > 0 {
			if err := w.teardown(); err != nil {
				return nil, fmt.Errorf("%s: teardown between set-ups: %w", name, err)
			}
		}
		d, err := w.setup()
		if err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		setups = append(setups, d)
		spent += d
	}
	res := &result{Workload: name, Trace: cfg.trace}
	var set metricSet
	var win *window
	if !cfg.trace {
		win = w.run(cfg.window, nil)
		set = win.endToEndMetrics(percentile(setups, 0.5), len(setups))
		// The per-op samples grow with throughput and are the benchmark's,
		// not the system's: they go before the live heap is read.
		win.lat, win.end = nil, nil
		if err = w.settle(); err == nil {
			set.put("heap_live_mb", float64(liveHeap())/(1<<20), 1)
			res.Metrics, err = set.ordered(endToEnd)
		}
	} else {
		// Half the window untraced, half traced: the first half is the
		// base of trace.overhead_share, measured moments before.
		base := w.run(cfg.window/2, nil)
		rec := newRecorder()
		win = w.run(cfg.window/2, rec)
		set = metricSet{}
		if err = w.layers(win, rec, set); err == nil {
			if len(win.lat) >= 1000 {
				set.put("op_ms_p99", ms(percentile(win.lat, 0.99)), len(win.lat))
			}
			set.put("trace.overhead_share", ratio(float64(win.best().p50), float64(base.best().p50))-1, len(win.lat))
			res.Metrics, err = set.ordered(perLayer)
			win.attempted += base.attempted
			win.failed += base.failed
			for q, n := range base.failures {
				win.failures[q] += n
			}
		}
		if err == nil {
			res.TraceOut, err = rec.write(cfg.outDir, name)
		}
	}
	if err != nil {
		w.teardown()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.Attempt, res.Failed = win.attempted, win.failed
	for q, n := range win.failures {
		res.Failures = append(res.Failures, fmt.Sprintf("%s x%d", q, n))
	}
	sort.Strings(res.Failures)
	if err := w.teardown(); err != nil {
		res.Trouble = err.Error()
	} else if n := settledGoroutines(goroutines); n > goroutines {
		res.Trouble = fmt.Sprintf("%d goroutines leaked (%d before, %d after teardown)", n-goroutines, goroutines, n)
	}
	res.Correct = res.Failed == 0 && res.Attempt > 0 && res.Trouble == ""
	return res, nil
}

// settledGoroutines waits briefly for HTTP connection goroutines to exit
// after teardown and returns the count it settles at.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(3 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

// header records what a reader needs to compare two reports.
type header struct {
	Seed       int64   `json:"seed"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seconds    float64 `json:"window_seconds"`
	QueueDepth int     `json:"cluster_shard_queue_depth"` // the servers' default is 4
	Sizes      sizes   `json:"sizes"`
}

// commit names the checkout's commit; the driver's checkout is not a git
// repository, and git must not find one above it.
func commit(root string) string {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "-C", abs, "rev-parse", "--short", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printResult(r *result) {
	mode := "end-to-end, tracing off"
	if r.Trace {
		mode = "per-layer, traced"
	}
	fmt.Printf("== %s (%s): %d ops attempted, %d failed\n", r.Workload, mode, r.Attempt, r.Failed)
	for _, m := range r.Metrics {
		fmt.Printf("  %-36s %16.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	for _, f := range r.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	if r.Trouble != "" {
		fmt.Printf("  TROUBLE %s\n", r.Trouble)
	}
	if r.TraceOut != "" {
		fmt.Printf("  spans written to %s\n", r.TraceOut)
	}
}

// contractLine is the driver's result object: exactly these four keys.
func contractLine(r *result) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempt, r.Failed, map[string]mv{}}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	return json.Marshal(out)
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "the only source of randomness: documents, samples, draws and mix order")
		seconds      = flag.Float64("seconds", contractSeconds, "timed window per run, in seconds")
		duration     = flag.Duration("duration", 0, "timed window as a Go duration (overrides -seconds)")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		outDir       = flag.String("out", "", "directory for span files and temporary store images (default benchmark/out)")
		asJSON       = flag.Bool("json", false, "with -workload all: print one JSON summary instead of tables")
		selfcheck    = flag.Bool("selfcheck", false, "run the full set six times as two interleaved sides and compare the sides' medians against the bounds (about 22 minutes)")
		spec         = flag.Bool("spec", false, "print BENCHMARK.json and exit")
		full         = flag.Bool("full", false, "print only the run's full result as one JSON line; -workload all and -selfcheck start their runs this way")
	)
	flag.Parse()
	if *spec {
		data, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
		return
	}
	runtime.GOMAXPROCS(procs)
	window := time.Duration(*seconds * float64(time.Second))
	if *duration > 0 {
		window = *duration
	}
	root := "."
	if _, err := os.Stat("benchmark"); err != nil {
		root = ".." // started inside benchmark/ rather than at the repository root
	}
	if *outDir == "" {
		*outDir = filepath.Join(root, "benchmark", "out")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	cfg := runConfig{
		seed: *seed, window: window, trace: *trace != 0,
		outDir: *outDir, sizes: defaultSizes,
	}
	hdr := header{
		Seed: *seed, Commit: commit(root), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: procs,
		Seconds: window.Seconds(), QueueDepth: cfg.shardQueueDepth(), Sizes: cfg.sizes,
	}

	if all := *workloadName == "all"; !(all && *asJSON) && !*full {
		hj, err := json.Marshal(hdr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("header %s\n", hj)
	}
	switch {
	case *selfcheck:
		os.Exit(runSelfcheck(cfg, hdr))
	case *workloadName == "all":
		os.Exit(runAll(cfg, hdr, *asJSON))
	}
	res, err := runWorkload(*workloadName, cfg)
	if err != nil {
		fatal(err)
	}
	var line []byte
	if *full {
		line, err = json.Marshal(res)
	} else {
		printResult(res)
		line, err = contractLine(res)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

// runChild measures one workload in a process of its own, as the driver
// does: live heap, allocation counts and the goroutine baseline of a
// workload must not depend on which workloads ran before it.
func runChild(name string, cfg runConfig) *result {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-full", "-workload", name, "-seed", fmt.Sprint(cfg.seed),
		"-duration", cfg.window.String(), "-trace", trace, "-out", cfg.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	// An incorrect run exits 1 but still prints its result; anything else
	// that leaves no result is fatal.
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		fatal(fmt.Errorf("%s: run left no result (%v): %v", name, err, jerr))
	}
	return &res
}

// runAll runs every workload untraced, then traced, and prints every metric.
func runAll(cfg runConfig, hdr header, asJSON bool) int {
	var results []*result
	ok := true
	for _, ws := range workloadSpecs {
		for _, traced := range []bool{false, true} {
			c := cfg
			c.trace = traced
			res := runChild(ws.Name, c)
			ok = ok && res.Correct
			results = append(results, res)
			if !asJSON {
				printResult(res)
			}
		}
	}
	ok = checkBypass(results, !asJSON) && ok
	if asJSON {
		// The summary ends with the claim: this benchmark defines the
		// baseline and claims no gain.
		doc := struct {
			Header  header    `json:"header"`
			Results []*result `json:"results"`
			Correct bool      `json:"correct"`
			Claim   *string   `json:"claim"`
		}{hdr, results, ok, nil}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", data)
	}
	if !ok {
		return 1
	}
	return 0
}

// checkBypass verifies that each workload enters the layers it was chosen
// for and bypasses the ones it was chosen against.
func checkBypass(results []*result, verbose bool) bool {
	traced := map[string]*result{}
	for _, r := range results {
		if r.Trace {
			traced[r.Workload] = r
		}
	}
	ok := true
	check := func(workload, name string, holds func(v float64) bool, want string) {
		r := traced[workload]
		if r == nil {
			return
		}
		m := r.metric(name)
		good := holds(m.Value)
		ok = ok && good
		if verbose || !good {
			verdict := "ok"
			if !good {
				verdict = "VIOLATED"
			}
			fmt.Fprintf(os.Stderr, "bypass check %-20s %-30s = %10.4f, want %s: %s\n", workload, name, m.Value, want, verdict)
		}
	}
	check(wLibDBLPStore, "store.buffer_misses_per_op", func(v float64) bool { return v > 0 }, "> 0")
	for _, w := range []string{wLibNavMem, wCompileCorpus, wClusterScatter} {
		check(w, "store.buffer_misses_per_op", func(v float64) bool { return v == 0 }, "= 0")
		check(w, "store.write_ms", func(v float64) bool { return v == 0 }, "= 0")
	}
	check(wServeZipfStore, "server.cached_share", func(v float64) bool { return v >= 0.9 }, ">= 0.9")
	check(wServeZipfStore, "store.buffer_hit_ratio", func(v float64) bool { return v >= 0.9 }, ">= 0.9")
	// The issue hoped for >= 0.8 here; instantiating and running each plan
	// once, even on a 12-node document, takes about 0.3 of the op (README).
	check(wCompileCorpus, "compile.share_of_op", func(v float64) bool { return v >= 0.6 }, ">= 0.6")
	check(wLibNavMem, "compile.share_of_op", func(v float64) bool { return v <= 0.05 }, "<= 0.05")
	check(wServeZipfStore, "compile.share_of_op", func(v float64) bool { return v <= 0.05 }, "<= 0.05")
	return ok
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
