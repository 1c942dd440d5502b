package bench

import (
	"fmt"
	"time"

	"natix"
	"natix/internal/dom"
	"natix/internal/store"
)

// AblationVariant is one engine configuration under test.
type AblationVariant struct {
	Name string
	Opt  natix.Options
}

// Ablation is one ablation study: a query, a document scale, and the
// configurations to compare. They correspond to the design-choice table in
// DESIGN.md.
type Ablation struct {
	ID    string
	Query string
	Scale int
	// Fanout overrides the generator fanout (0 = the paper's default for
	// the scale); small fanouts give deep documents with heavily
	// overlapping descendant sets.
	Fanout int
	// DBLP selects the synthetic DBLP document (Scale = publications)
	// instead of the uniform generated document.
	DBLP bool
	Vars []AblationVariant
}

// Ablations lists the ablation studies over generated documents.
var Ablations = []Ablation{
	{
		ID:    "stacked",
		Query: Fig5[0].XPath, // query 1
		Scale: 4000,
		Vars: []AblationVariant{
			{"stacked", natix.Options{}},
			{"djoin-chain", natix.Options{DisableStacked: true}},
		},
	},
	{
		ID: "dupelim",
		// Section 4.1: without pushed duplicate elimination intermediate
		// duplicates multiply; the scale is kept small so the disabled
		// variant still terminates.
		Query: Fig5[0].XPath,
		Scale: 600,
		Vars: []AblationVariant{
			{"push", natix.Options{}},
			{"final-only", natix.Options{DisableDupElimPush: true}},
		},
	},
	{
		ID: "memox",
		// Section 4.2.2's shape: the inner path re-reaches the same
		// elements from many outer contexts (a deep fanout-2 document
		// nests descendant sets), and the memoized step is selective, so
		// replaying the cache beats re-running the axis scan.
		Query:  "/descendant::e[count(descendant::e/following::e[@id mod 97 = 0]) >= 0]",
		Scale:  1200,
		Fanout: 2,
		Vars: []AblationVariant{
			{"memo", natix.Options{}},
			{"no-memo", natix.Options{DisableMemoX: true}},
		},
	},
	{
		ID: "predreorder",
		// Section 4.3.2: the expensive clause is written FIRST, so source
		// order evaluates it for every candidate while the reordering
		// runs the cheap id filter first and halves the expensive work.
		Query:  "/descendant::e[count(descendant::e/following::e) >= 0 and @id mod 2 = 0]",
		Scale:  800,
		Fanout: 3,
		Vars: []AblationVariant{
			{"cheap-first", natix.Options{}},
			{"source-order", natix.Options{DisablePredReorder: true}},
		},
	},
	{
		ID: "seqprops",
		// The deferred-work sequence analysis ([13]) drops the duplicate
		// elimination after the provably duplicate-free descendant step
		// and the document-order sort of the filter expression.
		Query: "(/child::xdoc/descendant::e)[position() > 0]",
		Scale: 8000,
		Vars: []AblationVariant{
			{"axis-ppd", natix.Options{}},
			{"seq-analysis", natix.Options{EnableSequenceAnalysis: true}},
		},
	},
	{
		ID: "pathrewrite",
		// Future-work structural rewrite (section 7): // merges into a
		// single descendant step, halving the unnest work.
		Query: "//e[@id = '999']",
		Scale: 8000,
		Vars: []AblationVariant{
			{"merge", natix.Options{}},
			{"no-merge", natix.Options{DisablePathRewrite: true}},
		},
	},
	{
		ID: "pathindex",
		// Future-work index (section 7): a selective element name over the
		// synthetic DBLP document — the structural path index jumps
		// straight to the ~2% of elements named phdthesis instead of
		// traversing the whole document.
		Query: "//phdthesis/@key",
		Scale: 20000,
		DBLP:  true,
		Vars: []AblationVariant{
			{"path-index", natix.Options{EnablePathIndex: true}},
			{"traversal", natix.Options{}},
		},
	},
	{
		ID: "smartagg",
		// Section 5.2.5: exists() stops at the first tuple.
		Query: "/descendant::e[descendant::e]",
		Scale: 4000,
		Vars: []AblationVariant{
			{"early-exit", natix.Options{}},
			{"full-scan", natix.Options{DisableSmartAggregation: true}},
		},
	},
}

// RunAblations measures every ablation over the in-memory documents.
func RunAblations(cfg Config) ([]Measurement, error) {
	cfg.fill()
	var out []Measurement
	for _, ab := range Ablations {
		mem := AblationDoc(ab)
		for _, v := range ab.Vars {
			v := v
			r := &Runner{Execute: func() (int, error) {
				q, err := natix.CompileWith(ab.Query, v.Opt)
				if err != nil {
					return 0, err
				}
				res, err := q.Run(natix.RootNode(mem), nil)
				if err != nil {
					return 0, err
				}
				if res.Value.IsNodeSet() {
					return len(res.Value.Nodes), nil
				}
				return 1, nil
			}}
			d, n, allocs, err := measure(r, cfg.Repeats)
			if err != nil {
				return nil, fmt.Errorf("ablation %s/%s: %w", ab.ID, v.Name, err)
			}
			m := Measurement{
				Exp: "ablation-" + ab.ID, Query: ab.Query, Engine: v.Name,
				Scale: ab.Scale,
			}
			m.fill(r, d, n, allocs)
			out = append(out, m)
			if cfg.Progress != nil {
				cfg.Progress(m)
			}
		}
	}
	return out, nil
}

// AblationDoc resolves the document of one ablation study.
func AblationDoc(ab Ablation) *dom.MemDoc {
	if ab.DBLP {
		return DBLPDoc(ab.Scale)
	}
	fanout := ab.Fanout
	if fanout == 0 {
		fanout = FanoutFor(ab.Scale)
	}
	return GeneratedDocFanout(ab.Scale, fanout)
}

// BufferPoint is one buffer-size ablation data point.
type BufferPoint struct {
	BufferPages int
	Duration    time.Duration
	Stats       store.BufferStats
}

// RunBufferAblation sweeps the buffer capacity for query 1 over the
// page-backed store.
func RunBufferAblation(elements int, pages []int, repeats int) ([]BufferPoint, error) {
	if len(pages) == 0 {
		pages = []int{4, 16, 64, 256, 1024}
	}
	if repeats == 0 {
		repeats = 3
	}
	mem := GeneratedDoc(elements)
	var out []BufferPoint
	for _, p := range pages {
		sd, err := StoreImage(fmt.Sprintf("gen/%d", elements), mem, p)
		if err != nil {
			return nil, err
		}
		q, err := natix.Compile(Fig5[0].XPath)
		if err != nil {
			return nil, err
		}
		sd.ResetBufferStats()
		var total time.Duration
		for i := 0; i < repeats; i++ {
			start := time.Now()
			if _, err := q.Run(natix.RootNode(sd), nil); err != nil {
				return nil, err
			}
			total += time.Since(start)
		}
		out = append(out, BufferPoint{
			BufferPages: p,
			Duration:    total / time.Duration(repeats),
			Stats:       sd.BufferStats(),
		})
	}
	return out, nil
}
