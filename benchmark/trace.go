package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the engine itself is not instrumented). Names equal the prefixes of
// the per-layer metrics so a later in-engine tracer can reuse them. Times
// are nanoseconds since the recorder started.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 = root span of its op
	Op     int64  `json:"op"`     // spans of one op share this id
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; a nil *recorder records nothing, which is
// how the untraced run shares the traced run's code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, op int64, parent int32) int32 {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	r.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a span whose interval was reported by the callee (a server's
// elapsed_us) rather than clocked here. The callee gives a duration, not a
// start, so the span is centred inside its parent.
func (r *recorder) add(name string, op int64, parent int32, dur time.Duration) int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent-1]
	end := p.End
	if end == 0 {
		end = int64(time.Since(r.t0))
	}
	start := p.Start + (end-p.Start-int64(dur))/2
	if start < p.Start {
		start = p.Start
	}
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: start + int64(dur)})
	return id
}

// durations returns the duration of every finished span called name.
func (r *recorder) durations(name string) []time.Duration {
	if r == nil {
		return nil
	}
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// selfTimes derives each span's self time: its duration minus the part its
// child spans cover.
func (r *recorder) selfTimes() map[string][]time.Duration {
	child := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		if s.Parent > 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]time.Duration{}
	for _, s := range r.spans {
		if s.End == 0 {
			continue
		}
		self := s.End - s.Start - child[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.Name] = append(out[s.Name], time.Duration(self))
	}
	return out
}

// maxSpansWritten bounds the trace file; the aggregates above always use
// every span.
const maxSpansWritten = 50000

type spanSummary struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	TotalMS   float64 `json:"total_ms"`
	SelfMS    float64 `json:"self_ms"`
	SelfP50US float64 `json:"self_p50_us"`
}

// write stores the spans and their per-name self-time summary as
// <dir>/trace-<workload>.json.
func (r *recorder) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	self := r.selfTimes()
	total := map[string]time.Duration{}
	for _, s := range r.spans {
		if s.End > 0 {
			total[s.Name] += time.Duration(s.End - s.Start)
		}
	}
	var summary []spanSummary
	for name, ds := range self {
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		summary = append(summary, spanSummary{
			Name: name, Count: len(ds),
			TotalMS: ms(total[name]), SelfMS: ms(sum),
			SelfP50US: us(percentile(ds, 0.50)),
		})
	}
	sort.Slice(summary, func(i, j int) bool { return summary[i].Name < summary[j].Name })
	written := r.spans
	if len(written) > maxSpansWritten {
		written = written[:maxSpansWritten]
	}
	doc := struct {
		Workload     string        `json:"workload"`
		SpansTotal   int           `json:"spans_total"`
		SpansWritten int           `json:"spans_written"`
		Summary      []spanSummary `json:"summary"`
		Spans        []span        `json:"spans"`
	}{workload, len(r.spans), len(written), summary, written}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
