// Package bench defines the experiments of the paper's evaluation
// (section 6) — the query set of Fig. 5, the document sweeps of Figs. 6-9,
// the DBLP workload of Fig. 10, and the ablation studies of the design
// choices — in a form shared by the go-test benchmarks (bench_test.go) and
// the natix-bench command.
package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"natix"
	"natix/internal/dom"
	"natix/internal/gen"
	"natix/internal/interp"
	"natix/internal/store"
	"natix/internal/xval"
)

// QuerySpec is one benchmark query.
type QuerySpec struct {
	ID    string
	XPath string
}

// Fig5 is the query set of Fig. 5, written with unabbreviated axis names
// (the paper abbreviates desc/anc/pre-sib/fol/par).
var Fig5 = []QuerySpec{
	{"q1", "/child::xdoc/descendant::*/ancestor::*/descendant::*/@id"},
	{"q2", "/child::xdoc/descendant::*/preceding-sibling::*/following::*/@id"},
	{"q3", "/child::xdoc/descendant::*/ancestor::*/ancestor::*/@id"},
	{"q4", "/child::xdoc/child::*/parent::*/descendant::*/@id"},
}

// FigForQuery maps a Fig. 5 query to the figure presenting its results.
func FigForQuery(id string) string {
	switch id {
	case "q1":
		return "fig6"
	case "q2":
		return "fig7"
	case "q3":
		return "fig8"
	default:
		return "fig9"
	}
}

// SmallSizes and LargeSizes are the document sweeps of section 6.2.1:
// 2000-8000 elements at fanout 6, 10000-80000 at fanout 10.
var (
	SmallSizes = []int{2000, 4000, 6000, 8000}
	LargeSizes = []int{10000, 20000, 40000, 80000}
)

// FanoutFor returns the generator fanout the paper used for a size.
func FanoutFor(elements int) int {
	if elements < 10000 {
		return 6
	}
	return 10
}

// Fig10 is the DBLP query table of Fig. 10 (one entry per row; the rows
// that list two paths are unions).
var Fig10 = []QuerySpec{
	{"d01", "/dblp/article/title"},
	{"d02", "/dblp/*/title"},
	{"d03", "/dblp/article[position() = 3]/title"},
	{"d04", "/dblp/article[position() < 100]/title"},
	{"d05", "/dblp/article[position() = last()]/title"},
	{"d06", "/dblp/article[position() = last() - 10]/title"},
	{"d07", "/dblp/article/title | /dblp/inproceedings/title"},
	{"d08", "/dblp/article[count(author) = 4]/@key"},
	{"d09", "/dblp/article[year = '1991']/@key | /dblp/inproceedings[year = '1991']/@key"},
	{"d10", "/dblp/*[author = 'Guido Moerkotte']/@key"},
	{"d11", "/dblp/inproceedings[@key = 'conf/er/LockemannM91']/title"},
	{"d12", "/dblp/inproceedings[author = 'Guido Moerkotte'][position() = last()]/title"},
}

// Engine names. "natix" is the algebraic engine over the page-backed store
// (the paper's system); "natix-mem" runs the same plans over the in-memory
// document; "interp" is the main-memory interpreter standing in for
// Xalan/xsltproc; "naive" is the interpreter without intermediate duplicate
// elimination (the exponential behaviour of [7,8]).
const (
	EngineNatix    = "natix"
	EngineNatixMem = "natix-mem"
	EngineInterp   = "interp"
	EngineNaive    = "naive"
)

// AllEngines lists the engines a figure sweep compares.
var AllEngines = []string{EngineNatix, EngineNatixMem, EngineInterp, EngineNaive}

// docCache caches generated documents and their store images across
// measurements.
type docCache struct {
	mu     sync.Mutex
	mem    map[string]*dom.MemDoc
	stored map[string]*store.Doc
}

var cache = &docCache{mem: map[string]*dom.MemDoc{}, stored: map[string]*store.Doc{}}

// GeneratedDoc returns (and caches) the section 6.2.1 document with the
// given element count and the paper's fanout for that size.
func GeneratedDoc(elements int) *dom.MemDoc {
	return GeneratedDocFanout(elements, FanoutFor(elements))
}

// GeneratedDocFanout returns (and caches) a generated document with an
// explicit fanout (deep documents for the memoization ablation).
func GeneratedDocFanout(elements, fanout int) *dom.MemDoc {
	key := fmt.Sprintf("gen/%d/f%d", elements, fanout)
	cache.mu.Lock()
	defer cache.mu.Unlock()
	if d, ok := cache.mem[key]; ok {
		return d
	}
	d := gen.Generate(gen.Params{Elements: elements, Fanout: fanout})
	cache.mem[key] = d
	return d
}

// DBLPDoc returns (and caches) the synthetic DBLP document.
func DBLPDoc(publications int) *dom.MemDoc {
	key := fmt.Sprintf("dblp/%d", publications)
	cache.mu.Lock()
	defer cache.mu.Unlock()
	if d, ok := cache.mem[key]; ok {
		return d
	}
	d := gen.DBLP(gen.DBLPParams{Publications: publications, Seed: 2005})
	cache.mem[key] = d
	return d
}

// StoreImage writes the document into the paged store format and opens it
// page-backed (cached). bufferPages 0 uses the default.
func StoreImage(key string, d *dom.MemDoc, bufferPages int) (*store.Doc, error) {
	ckey := fmt.Sprintf("%s/buf=%d", key, bufferPages)
	cache.mu.Lock()
	defer cache.mu.Unlock()
	if sd, ok := cache.stored[ckey]; ok {
		return sd, nil
	}
	var buf bytes.Buffer
	if err := store.WriteTo(&buf, d); err != nil {
		return nil, err
	}
	sd, err := store.OpenReaderAt(bytes.NewReader(buf.Bytes()), store.Options{BufferPages: bufferPages})
	if err != nil {
		return nil, err
	}
	cache.stored[ckey] = sd
	return sd, nil
}

// Runner executes one (engine, query) pair; Prepare compiles, Execute runs
// once and reports the result cardinality (node count or 1 for scalars).
type Runner struct {
	Execute func() (int, error)
	// Stats, when non-nil, returns the engine counters of the most recent
	// Execute (the natix engines expose them; the interpreters do not).
	Stats func() natix.Stats
}

// NewRunner builds a runner for the engine over the given documents. The
// paper measures compile+execute time, so Execute includes compilation.
func NewRunner(engine, query string, mem *dom.MemDoc, stored *store.Doc) (*Runner, error) {
	size := func(v xval.Value) int {
		if v.IsNodeSet() {
			return len(v.Nodes)
		}
		return 1
	}
	switch engine {
	case EngineNatix, EngineNatixMem:
		var doc dom.Document = mem
		if engine == EngineNatix {
			if stored == nil {
				return nil, fmt.Errorf("bench: %s needs a store image", engine)
			}
			doc = stored
		}
		var last natix.Stats
		return &Runner{
			Execute: func() (int, error) {
				q, err := natix.Compile(query)
				if err != nil {
					return 0, err
				}
				res, err := q.Run(natix.RootNode(doc), nil)
				if err != nil {
					return 0, err
				}
				last = res.Stats
				return size(res.Value), nil
			},
			Stats: func() natix.Stats { return last },
		}, nil
	case EngineInterp, EngineNaive:
		opt := interp.Options{DedupSteps: engine == EngineInterp}
		return &Runner{Execute: func() (int, error) {
			q, err := interp.Compile(query, nil, opt)
			if err != nil {
				return 0, err
			}
			v, err := q.Eval(dom.Node{Doc: mem, ID: mem.Root()}, nil)
			if err != nil {
				return 0, err
			}
			return size(v), nil
		}}, nil
	}
	return nil, fmt.Errorf("bench: unknown engine %q", engine)
}

// Measurement is one harness data point. The JSON form is the format of
// `natix-bench -json`: Duration marshals as integer nanoseconds per
// operation.
type Measurement struct {
	Exp      string        `json:"exp"`
	Query    string        `json:"query"`
	Engine   string        `json:"engine"`
	Scale    int           `json:"scale"` // element count or publication count
	Duration time.Duration `json:"ns_per_op"`
	Result   int           `json:"result"`
	// Allocs is the heap allocations per Execute, averaged over repeats.
	Allocs int64 `json:"allocs_per_op"`
	// Stats are the engine counters of the final repeat (zero for the
	// interpreter engines, which expose none).
	Stats natix.Stats `json:"stats"`
	// Skipped marks engines dropped from larger scales after exceeding
	// the budget (the paper's curves "stop before reaching the end of the
	// x-axis").
	Skipped bool `json:"skipped,omitempty"`
}

// Config controls a harness run.
type Config struct {
	// Sizes overrides the document sweep (default SmallSizes+LargeSizes).
	Sizes []int
	// Engines overrides the engine list.
	Engines []string
	// Repeats averages each point over this many runs (default 3).
	Repeats int
	// Budget drops an engine from larger sizes once one run exceeds it
	// (default 15s).
	Budget time.Duration
	// Progress, when non-nil, receives each measurement as it completes.
	Progress func(Measurement)
}

func (c *Config) fill() {
	if len(c.Sizes) == 0 {
		c.Sizes = append(append([]int{}, SmallSizes...), LargeSizes...)
	}
	if len(c.Engines) == 0 {
		c.Engines = AllEngines
	}
	if c.Repeats == 0 {
		c.Repeats = 3
	}
	if c.Budget == 0 {
		c.Budget = 15 * time.Second
	}
}

// RunFigure runs the sweep of one Fig. 5 query (figID "fig6".."fig9").
func RunFigure(figID string, cfg Config) ([]Measurement, error) {
	cfg.fill()
	var spec QuerySpec
	for _, q := range Fig5 {
		if FigForQuery(q.ID) == figID {
			spec = q
		}
	}
	if spec.ID == "" {
		return nil, fmt.Errorf("bench: unknown figure %q", figID)
	}
	var out []Measurement
	dead := map[string]bool{}
	for _, size := range cfg.Sizes {
		mem := GeneratedDoc(size)
		stored, err := StoreImage(fmt.Sprintf("gen/%d", size), mem, 0)
		if err != nil {
			return nil, err
		}
		for _, engine := range cfg.Engines {
			m := Measurement{Exp: figID, Query: spec.ID, Engine: engine, Scale: size}
			if dead[engine] {
				m.Skipped = true
				out = append(out, m)
				continue
			}
			r, err := NewRunner(engine, spec.XPath, mem, stored)
			if err != nil {
				return nil, err
			}
			d, n, allocs, err := measure(r, cfg.Repeats)
			if err != nil {
				return nil, fmt.Errorf("%s %s on %d: %w", engine, spec.ID, size, err)
			}
			m.fill(r, d, n, allocs)
			if d > cfg.Budget {
				dead[engine] = true
			}
			out = append(out, m)
			if cfg.Progress != nil {
				cfg.Progress(m)
			}
		}
	}
	return out, nil
}

// RunFig10 runs the DBLP table with the given scale (publication count).
func RunFig10(publications int, cfg Config) ([]Measurement, error) {
	cfg.fill()
	if len(cfg.Engines) == len(AllEngines) {
		// The naive interpreter degenerates on the union rows; the paper
		// compares Xalan vs Natix here.
		cfg.Engines = []string{EngineNatix, EngineInterp}
	}
	mem := DBLPDoc(publications)
	stored, err := StoreImage(fmt.Sprintf("dblp/%d", publications), mem, 0)
	if err != nil {
		return nil, err
	}
	var out []Measurement
	for _, spec := range Fig10 {
		for _, engine := range cfg.Engines {
			r, err := NewRunner(engine, spec.XPath, mem, stored)
			if err != nil {
				return nil, err
			}
			d, n, allocs, err := measure(r, cfg.Repeats)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", engine, spec.ID, err)
			}
			m := Measurement{Exp: "fig10", Query: spec.ID, Engine: engine, Scale: publications}
			m.fill(r, d, n, allocs)
			out = append(out, m)
			if cfg.Progress != nil {
				cfg.Progress(m)
			}
		}
	}
	return out, nil
}

func measure(r *Runner, repeats int) (time.Duration, int, int64, error) {
	var total time.Duration
	var size int
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		n, err := r.Execute()
		if err != nil {
			return 0, 0, 0, err
		}
		total += time.Since(start)
		size = n
	}
	runtime.ReadMemStats(&ms1)
	allocs := int64(ms1.Mallocs-ms0.Mallocs) / int64(repeats)
	return total / time.Duration(repeats), size, allocs, nil
}

// fill copies a measurement's per-run extras out of a finished runner.
func (m *Measurement) fill(r *Runner, d time.Duration, n int, allocs int64) {
	m.Duration, m.Result, m.Allocs = d, n, allocs
	if r.Stats != nil {
		m.Stats = r.Stats()
	}
}
