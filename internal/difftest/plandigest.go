package difftest

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"natix"
	"natix/internal/bench"
)

//go:generate go run gen_digest.go

// PlanHash is one plan's entry in the plan digest.
type PlanHash struct {
	// Config names the compile options: "default" or "path-index".
	Config string
	// ID is "fig5/<q>", "fig10/<d>" or "corpus".
	ID   string
	Expr string
	// Hash is a prefix of the SHA-256 of the plan's ExplainAlgebra,
	// ExplainPhysical and CostBytes.
	Hash string
}

// digestConfigs are the compile options the plan digest covers.
var digestConfigs = []Config{
	{Name: "default"},
	{Name: "path-index", Opt: natix.Options{EnablePathIndex: true}},
}

// PlanDigest is the plan-identity proof of ROADMAP's ground rules: it
// compiles every plan of Fig. 5, Fig. 10 and every distinct corpus
// expression under each of digestConfigs and hashes what the compiler
// produced. A refactor that leaves every hash equal changed no plan, no
// explain text and no plan-cache charge. Entries come in a fixed order.
func PlanDigest() ([]PlanHash, error) {
	items, _, err := Corpus()
	if err != nil {
		return nil, err
	}
	type query struct {
		id, expr string
		ns       map[string]string
	}
	var qs []query
	for _, s := range bench.Fig5 {
		qs = append(qs, query{id: "fig5/" + s.ID, expr: s.XPath})
	}
	for _, s := range bench.Fig10 {
		qs = append(qs, query{id: "fig10/" + s.ID, expr: s.XPath})
	}
	seen := map[string]bool{}
	for _, it := range items {
		if !seen[it.Expr] {
			seen[it.Expr] = true
			qs = append(qs, query{id: "corpus", expr: it.Expr, ns: it.NS})
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
			out = append(out, PlanHash{
				Config: cfg.Name, ID: q.id, Expr: q.expr,
				Hash: hex.EncodeToString(h.Sum(nil)[:8]),
			})
		}
	}
	return out, nil
}

// FormatDigest renders a digest as its golden file: a total over every
// entry, then one tab-separated line per plan (config, id, hash, quoted
// expression), so a diff names exactly the plans that changed.
func FormatDigest(hs []PlanHash) string {
	var body strings.Builder
	for _, h := range hs {
		fmt.Fprintf(&body, "%s\t%s\t%s\t%q\n", h.Config, h.ID, h.Hash, h.Expr)
	}
	total := sha256.Sum256([]byte(body.String()))
	return fmt.Sprintf("# plans: %d\ntotal %x\n%s", len(hs), total, body.String())
}
