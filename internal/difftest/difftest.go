// Package difftest is the cross-mode differential harness of the
// observability layer: it runs a corpus of XPath queries under every
// translation configuration (Improved, Canonical, each ablation flag and
// the sequence-analysis extension, each with a canonicalization twin, and a
// path-index twin of all of them: 36 configurations) crossed with
// every document backend (in-memory and store-backed), comparing all of
// them against the reference interpreter. Any divergence — differing value,
// or an error in one cell only — is reported with enough context to
// reproduce it.
//
// The corpus combines every conformance case (hand-computed expectations
// double-check the reference itself) with deterministically generated
// queries over synthetic documents, so a run covers well over 200 distinct
// queries without network or fixtures.
package difftest

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"natix"
	"natix/internal/canon"
	"natix/internal/conformance"
	"natix/internal/dom"
	"natix/internal/interp"
	"natix/internal/sem"
	"natix/internal/store"
	"natix/internal/xval"
)

// Config is one translation configuration under test.
type Config struct {
	Name string
	Opt  natix.Options
	// Canon runs the query through internal/canon before compilation.
	// Canonicalization claims semantic identity, so a -canon twin must
	// render byte-identically to the reference run on the original text.
	Canon bool
}

// Configs returns the full configuration matrix of 36 configurations: both
// translation modes, each ablation flag in isolation, and the sequence
// analysis extension. Every base configuration gets a canonicalization
// twin, and the whole set a path-index twin. Execution is not a
// configuration: the code generator alone decides which operators batch,
// and the adversarial batch sizes are root-package tests.
func Configs() []Config {
	base := []Config{
		{Name: "improved", Opt: natix.Options{Mode: natix.Improved}},
		{Name: "canonical", Opt: natix.Options{Mode: natix.Canonical}},
		{Name: "no-dupelim-push", Opt: natix.Options{Mode: natix.Improved, DisableDupElimPush: true}},
		{Name: "no-stacked", Opt: natix.Options{Mode: natix.Improved, DisableStacked: true}},
		{Name: "no-memox", Opt: natix.Options{Mode: natix.Improved, DisableMemoX: true}},
		{Name: "no-pred-reorder", Opt: natix.Options{Mode: natix.Improved, DisablePredReorder: true}},
		{Name: "no-smart-agg", Opt: natix.Options{Mode: natix.Improved, DisableSmartAggregation: true}},
		{Name: "no-path-rewrite", Opt: natix.Options{Mode: natix.Improved, DisablePathRewrite: true}},
		{Name: "seq-analysis", Opt: natix.Options{Mode: natix.Improved, EnableSequenceAnalysis: true}},
	}
	all := make([]Config, 0, 2*len(base))
	all = append(all, base...)
	// Canonicalization twins: each base configuration again with the query
	// rewritten by internal/canon before compilation. The serving layer
	// keys its plan cache and singleflight on the canonical text, so this
	// is the divergence check backing that substitution: every twin must
	// diff clean against the reference run on the original expression.
	for _, c := range base {
		cn := c
		cn.Name = c.Name + "-canon"
		cn.Canon = true
		all = append(all, cn)
	}
	// Path-index twins: every configuration again with cost-based
	// access-path selection on. The substitution claims byte-identical
	// results (order included), so each twin must diff clean against the
	// reference on both backends — the store backend's cheaper index cost
	// makes the scan the chosen path on most generated documents, while the
	// tiny conformance documents mostly exercise the cost fallback.
	withPix := make([]Config, 0, 2*len(all))
	for _, c := range all {
		withPix = append(withPix, c)
		pix := c
		pix.Name = c.Name + "-pix"
		pix.Opt.EnablePathIndex = true
		withPix = append(withPix, pix)
	}
	return withPix
}

// Item is one corpus entry: a query against a named document.
type Item struct {
	// DocName labels the document in reports.
	DocName string
	// Expr is the XPath expression, evaluated at the document root.
	Expr string
	// Vars are the variable bindings, nil for none.
	Vars map[string]xval.Value
	// NS are namespace declarations, nil for none.
	NS map[string]string
}

// Divergence is one observed disagreement between an engine cell and the
// reference interpreter.
type Divergence struct {
	Config  string
	Backend string
	DocName string
	Expr    string
	Got     string
	Want    string
}

func (d Divergence) String() string {
	return fmt.Sprintf("%s/%s: %q on %s:\n  got  %s\n  want %s",
		d.Config, d.Backend, d.Expr, d.DocName, d.Got, d.Want)
}

// Corpus returns the full query corpus and the documents it refers to.
func Corpus() ([]Item, map[string]*dom.MemDoc, error) {
	docs := map[string]*dom.MemDoc{}
	for name, src := range conformance.Docs {
		d, err := dom.ParseString(src)
		if err != nil {
			return nil, nil, fmt.Errorf("difftest: parse %q: %v", name, err)
		}
		docs[name] = d
	}

	var items []Item
	for _, c := range conformance.Cases {
		if c.WantErr {
			continue // error cases have no value to compare
		}
		items = append(items, Item{
			DocName: c.Doc,
			Expr:    c.Expr,
			Vars:    c.Vars(),
			NS:      conformance.Namespaces,
		})
	}

	// Deterministic generated queries over synthetic documents. The seed is
	// fixed so CI and local runs cover the identical corpus.
	rng := rand.New(rand.NewSource(20050405))
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("gen%d", i)
		docs[name] = genDoc(rng, 50+i*40)
	}
	for i := 0; i < 120; i++ {
		items = append(items, Item{
			DocName: fmt.Sprintf("gen%d", rng.Intn(3)),
			Expr:    genQuery(rng),
		})
	}
	return items, docs, nil
}

// Backend materializes a parsed document for one storage tier.
type Backend struct {
	Name string
	// Prepare returns the document to query. The store backend round-trips
	// the in-memory document through a serialized page image.
	Prepare func(d *dom.MemDoc) (dom.Document, error)
}

// Backends returns the storage tiers the harness crosses configs with.
func Backends() []Backend {
	return []Backend{
		{Name: "mem", Prepare: func(d *dom.MemDoc) (dom.Document, error) { return d, nil }},
		{Name: "store", Prepare: func(d *dom.MemDoc) (dom.Document, error) {
			var buf bytes.Buffer
			if err := store.WriteTo(&buf, d); err != nil {
				return nil, err
			}
			return store.OpenReaderAt(bytes.NewReader(buf.Bytes()), store.Options{})
		}},
	}
}

// Run executes the corpus across the full config × backend matrix and
// returns every divergence plus the number of (query, config, backend)
// cells checked. A reference-interpreter failure is returned as an error —
// the harness cannot judge the engines without its referee.
func Run(items []Item, docs map[string]*dom.MemDoc, configs []Config, backends []Backend) ([]Divergence, int, error) {
	var divs []Divergence
	cells := 0
	for _, be := range backends {
		// Prepare each document once per backend; queries run sequentially,
		// which respects the store documents' single-goroutine contract.
		prepared := map[string]dom.Document{}
		for name, d := range docs {
			pd, err := be.Prepare(d)
			if err != nil {
				return nil, cells, fmt.Errorf("difftest: prepare %s/%s: %v", be.Name, name, err)
			}
			prepared[name] = pd
		}
		for _, it := range items {
			memDoc, ok := docs[it.DocName]
			if !ok {
				return nil, cells, fmt.Errorf("difftest: unknown document %q", it.DocName)
			}
			ref, err := interp.Compile(it.Expr, &sem.Env{Namespaces: it.NS}, interp.Options{DedupSteps: true})
			if err != nil {
				return nil, cells, fmt.Errorf("difftest: reference compile %q: %v", it.Expr, err)
			}
			want, err := ref.Eval(dom.Node{Doc: memDoc, ID: memDoc.Root()}, it.Vars)
			if err != nil {
				return nil, cells, fmt.Errorf("difftest: reference eval %q: %v", it.Expr, err)
			}
			wantR := conformance.Render(want)

			doc := prepared[it.DocName]
			root := natix.RootNode(doc)
			for _, cfg := range configs {
				cells++
				opt := cfg.Opt
				opt.Namespaces = it.NS
				expr := it.Expr
				if cfg.Canon {
					expr, _ = canon.Canonicalize(expr)
				}
				got, err := evalOne(expr, opt, root, it.Vars)
				if err != nil {
					divs = append(divs, Divergence{
						Config: cfg.Name, Backend: be.Name, DocName: it.DocName,
						Expr: it.Expr, Got: "error: " + err.Error(), Want: wantR,
					})
					continue
				}
				if got != wantR {
					divs = append(divs, Divergence{
						Config: cfg.Name, Backend: be.Name, DocName: it.DocName,
						Expr: it.Expr, Got: got, Want: wantR,
					})
				}
			}
		}
	}
	return divs, cells, nil
}

func evalOne(expr string, opt natix.Options, root natix.Node, vars map[string]xval.Value) (string, error) {
	q, err := natix.CompileWith(expr, opt)
	if err != nil {
		return "", fmt.Errorf("compile: %w", err)
	}
	res, err := q.Run(root, vars)
	if err != nil {
		return "", fmt.Errorf("run: %w", err)
	}
	return conformance.Render(res.Value), nil
}

// genDoc builds a deterministic synthetic document: small name alphabet,
// attributes and mixed content so axes and predicates hit often.
func genDoc(rng *rand.Rand, maxNodes int) *dom.MemDoc {
	b := dom.NewBuilder()
	names := []string{"a", "b", "c", "d"}
	count := 0
	var build func(depth int)
	build = func(depth int) {
		for count < maxNodes && rng.Intn(4) != 0 {
			count++
			switch rng.Intn(6) {
			case 0:
				b.Text(fmt.Sprintf("%d", rng.Intn(5)))
			case 1:
				b.Comment("c")
			default:
				b.StartElement("", names[rng.Intn(len(names))], "")
				if rng.Intn(2) == 0 {
					b.Attr("", "k", "", fmt.Sprintf("%d", rng.Intn(4)))
				}
				if depth < 6 {
					build(depth + 1)
				}
				b.EndElement()
			}
		}
	}
	b.StartElement("", "root", "")
	build(0)
	b.EndElement()
	return b.Doc()
}

// genQuery produces one deterministic query over the genDoc alphabet.
func genQuery(rng *rand.Rand) string {
	axes := []string{
		"child", "descendant", "descendant-or-self", "parent", "ancestor",
		"ancestor-or-self", "following", "preceding", "following-sibling",
		"preceding-sibling", "self",
	}
	tests := []string{"a", "b", "c", "d", "*", "node()", "text()"}
	preds := []string{
		"", "[1]", "[2]", "[last()]", "[position() < 3]",
		"[position() = last()]", "[@k]", "[@k = '1']", "[. = '2']",
		"[count(*) > 0]", "[b]", "[descendant::c]", "[not(a)]",
		"[a or b]", "[string-length() > 1]", "[last() - 1]",
		"[.//c]", "[../b]", "[a = b]", "[contains(., '1')]",
		"[position() mod 2 = 1]", "[self::a or self::b]",
		"[sum(*/@k) > 1]",
	}
	path := func() string {
		var sb strings.Builder
		switch rng.Intn(3) {
		case 0:
			sb.WriteByte('/')
		case 1:
			sb.WriteString("/root/")
		default:
			sb.WriteString("//")
		}
		steps := 1 + rng.Intn(4)
		for i := 0; i < steps; i++ {
			if i > 0 {
				if rng.Intn(5) == 0 {
					sb.WriteString("//")
				} else {
					sb.WriteByte('/')
				}
			}
			if rng.Intn(4) != 0 {
				sb.WriteString(axes[rng.Intn(len(axes))])
				sb.WriteString("::")
			}
			sb.WriteString(tests[rng.Intn(len(tests))])
			if p := preds[rng.Intn(len(preds))]; p != "" && rng.Intn(2) == 0 {
				sb.WriteString(p)
			}
		}
		return sb.String()
	}
	base := path()
	switch rng.Intn(12) {
	case 0:
		return "count(" + base + ")"
	case 1:
		return "string(" + base + ")"
	case 2:
		return "sum(" + base + "/@k)"
	case 3:
		return base + " | " + path()
	case 4:
		return "(" + base + ")[" + fmt.Sprint(1+rng.Intn(4)) + "]"
	case 5:
		return "(" + base + " | " + path() + ")[last()]"
	case 6:
		return base + " = " + path()
	case 7:
		return base + " != " + path()
	case 8:
		return "count(" + base + ") > count(" + path() + ")"
	case 9:
		return "normalize-space(" + base + ")"
	default:
		return base
	}
}
