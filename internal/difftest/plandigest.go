package difftest

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"natix"
	"natix/internal/bench"
	"natix/internal/conformance"
	"natix/internal/dom"
	"natix/internal/gen"
	"natix/internal/store"
	"natix/internal/xval"
)

//go:generate go run gen_digest.go

// PlanHash is one plan's entry in the plan digest: what the compiler
// produced and what one run of it did.
type PlanHash struct {
	// Config names the compile options: "default" or "path-index".
	Config string
	// ID is "fig5/<q>", "walk/stepover", "fig10/<d>" or "corpus".
	ID   string
	Expr string
	// Hash is a prefix of the SHA-256 of the plan's ExplainAlgebra,
	// ExplainPhysical and CostBytes.
	Hash string
	// Stats are the engine counters of one run on the entry's document.
	Stats natix.Stats
	// Misses are the store buffer misses of that run (0 on a MemDoc).
	Misses int64
	// Answer digests the run's result: the node count and a hash of the
	// node ids in result order, or the rendered scalar.
	Answer string
}

// digestConfigs are the compile options the plan digest covers.
var digestConfigs = []Config{
	{Name: "default"},
	{Name: "path-index", Opt: natix.Options{EnablePathIndex: true}},
}

// PlanDigest is the plan-identity and work proof of ROADMAP's ground
// rules: it compiles every plan of Fig. 5, Fig. 10 and every distinct
// corpus expression under each of digestConfigs, hashes what the compiler
// produced, and runs the plan once. Fig. 5 (and one variant of q1 that
// exercises the visited-set step-over) runs on the generated document at
// 2000 elements and fanout 6, each Fig. 10 query on a fresh handle of a
// 300-publication store image with MinPageSize pages, and a corpus
// expression on the document of its first corpus item. Every queried
// document is built anew per call, so the counters repeat exactly. A
// refactor that leaves every entry equal changed no plan, no explain text,
// no plan-cache charge, no engine counter, no page read and no answer.
// Entries come in a fixed order.
func PlanDigest() ([]PlanHash, error) {
	items, docs, err := Corpus()
	if err != nil {
		return nil, err
	}
	var img bytes.Buffer
	if err := store.WriteToPageSize(&img, bench.DBLPDoc(300), store.MinPageSize); err != nil {
		return nil, fmt.Errorf("difftest: digest store image: %v", err)
	}
	fig5Doc := gen.Generate(gen.Params{Elements: 2000, Fanout: 6})
	type query struct {
		id, expr string
		ns       map[string]string
		vars     map[string]xval.Value
		// doc is the document the plan runs on; nil opens a fresh handle
		// of the Fig. 10 store image, so each query starts cold.
		doc dom.Document
	}
	var qs []query
	for _, s := range bench.Fig5 {
		qs = append(qs, query{id: "fig5/" + s.ID, expr: s.XPath, doc: fig5Doc})
	}
	// Fig. 5's descendant steps meet their contexts in document order, so
	// none of them steps over a subtree an earlier context marked. q1 from
	// the last element does: its ancestors arrive bottom-up, and each walk
	// after the first steps over the previous one's subtree.
	qs = append(qs, query{id: "walk/stepover",
		expr: "/child::xdoc/descendant::*[last()]/ancestor::*/descendant::*/@id", doc: fig5Doc})
	for _, s := range bench.Fig10 {
		qs = append(qs, query{id: "fig10/" + s.ID, expr: s.XPath})
	}
	seen := map[string]bool{}
	for _, it := range items {
		if !seen[it.Expr] {
			seen[it.Expr] = true
			qs = append(qs, query{id: "corpus", expr: it.Expr, ns: it.NS, vars: it.Vars, doc: docs[it.DocName]})
		}
	}
	var out []PlanHash
	for _, cfg := range digestConfigs {
		for _, q := range qs {
			opt := cfg.Opt
			opt.Namespaces = q.ns
			p, err := natix.Prepare(q.expr, opt)
			if err != nil {
				return nil, fmt.Errorf("difftest: digest %s %q: %v", cfg.Name, q.expr, err)
			}
			h := sha256.New()
			h.Write([]byte(p.ExplainAlgebra()))
			h.Write([]byte{0})
			h.Write([]byte(p.ExplainPhysical()))
			h.Write([]byte{0})
			h.Write([]byte(strconv.FormatInt(p.CostBytes(), 10)))
			e := PlanHash{
				Config: cfg.Name, ID: q.id, Expr: q.expr,
				Hash: hex.EncodeToString(h.Sum(nil)[:8]),
			}
			doc, sd := q.doc, (*store.Doc)(nil)
			if doc == nil {
				if sd, err = store.OpenReaderAt(bytes.NewReader(img.Bytes()), store.Options{}); err != nil {
					return nil, fmt.Errorf("difftest: digest open %s: %v", q.id, err)
				}
				sd.ResetBufferStats() // count the run's reads, not the open's
				doc = sd
			}
			res, err := p.Run(natix.RootNode(doc), q.vars)
			if err != nil {
				return nil, fmt.Errorf("difftest: digest run %s %q: %v", cfg.Name, q.expr, err)
			}
			if sd != nil {
				e.Misses = sd.BufferStats().Misses
			}
			e.Stats, e.Answer = res.Stats, answerDigest(res.Value)
			out = append(out, e)
		}
	}
	return out, nil
}

// answerDigest is the node count and a hash of the node ids in result
// order for a node-set, the quoted rendered value for a scalar.
func answerDigest(v xval.Value) string {
	if !v.IsNodeSet() {
		return strconv.Quote(conformance.Render(v))
	}
	ids := make([]byte, 0, 4*len(v.Nodes))
	for _, n := range v.Nodes {
		ids = binary.LittleEndian.AppendUint32(ids, uint32(n.ID))
	}
	sum := sha256.Sum256(ids)
	return fmt.Sprintf("%d#%x", len(v.Nodes), sum[:8])
}

// work renders an entry's counters as its golden column.
func (e PlanHash) work() string {
	s := e.Stats
	return fmt.Sprintf("steps=%d tuples=%d dup=%d sorted=%d memo=%d/%d miss=%d",
		s.AxisSteps, s.Tuples, s.DupDropped, s.Sorted, s.MemoHits, s.MemoMisses, e.Misses)
}

// FormatDigest renders a digest as its golden file: a total over every
// entry, then one tab-separated line per plan (config, id, hash, work,
// answer, quoted expression), so a diff names exactly the plans whose
// identity or work changed.
func FormatDigest(hs []PlanHash) string {
	var body strings.Builder
	for _, h := range hs {
		fmt.Fprintf(&body, "%s\t%s\t%s\t%s\t%s\t%q\n", h.Config, h.ID, h.Hash, h.work(), h.Answer, h.Expr)
	}
	total := sha256.Sum256([]byte(body.String()))
	return fmt.Sprintf("# plans: %d\ntotal %x\n%s", len(hs), total, body.String())
}
