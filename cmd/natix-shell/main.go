// Command natix-shell is an interactive XPath console over a document:
// type expressions to evaluate them; backslash commands switch modes,
// inspect plans, bind variables, and move the context node.
//
//	natix-shell catalog.xml
//	natix-shell -store dblp.natix
//
//	> //book[price > 30]/title
//	> \explain //book[last()]
//	> \set $limit 30
//	> //book[price > $limit]
//	> \context /catalog/book[2]
//	> title
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"natix"
	"natix/internal/canon"
	"natix/internal/dom"
	"natix/internal/metrics"
	"natix/internal/plancache"
	"natix/internal/store"
	"natix/internal/xval"
)

func main() {
	useStore := flag.Bool("store", false, "treat the document as a natix store file")
	pathIndex := flag.Bool("path-index", false, "enable path-index access-path selection (same as \\pathindex on)")
	timeout := flag.Duration("timeout", 0, "abort each evaluation after this duration (0 = none)")
	maxMem := flag.Int64("max-mem", 0, "abort evaluations materializing more than this many bytes (0 = unlimited)")
	enableMetrics := flag.Bool("metrics", false, "collect engine metrics from startup (same as \\metrics on)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address for the session")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: natix-shell [flags] <document>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	// -metrics and -debug-addr compose: both enable collection, and the
	// expvar/debug registration behind metrics.Serve is once-guarded.
	if *enableMetrics {
		metrics.Enable()
	}
	if *debugAddr != "" {
		addr, err := metrics.Serve(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "natix-shell:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s/metrics\n", addr)
	}
	doc, closer, err := loadDoc(flag.Arg(0), *useStore)
	if err != nil {
		fmt.Fprintln(os.Stderr, "natix-shell:", err)
		os.Exit(1)
	}
	if closer != nil {
		defer closer()
	}
	sh := newShell(doc, os.Stdout)
	sh.timeout = *timeout
	sh.maxMem = *maxMem
	sh.pathIndex = *pathIndex
	fmt.Printf("natix shell — %d nodes loaded; \\help for commands\n", doc.NodeCount())
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			break
		}
		if sh.exec(sc.Text()) {
			break
		}
	}
}

func loadDoc(path string, useStore bool) (dom.Document, func() error, error) {
	if useStore {
		sd, err := store.Open(path, store.Options{})
		if err != nil {
			return nil, nil, err
		}
		return sd, sd.Close, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	d, err := dom.Parse(f)
	if err != nil {
		return nil, nil, err
	}
	return d, nil, nil
}

// shell holds the interactive state.
type shell struct {
	doc     dom.Document
	out     io.Writer
	ctx     natix.Node
	mode    natix.TranslationMode
	vars    map[string]xval.Value
	stats   bool
	ns      map[string]string
	timeout time.Duration
	maxMem  int64
	// pathIndex toggles Options.EnablePathIndex for every compilation of
	// the session (\pathindex on|off); it is part of the plan-cache key
	// through OptionsKey, so toggling recompiles naturally.
	pathIndex bool
	// canon routes every compilation through the canonicalizer
	// (\canon on|off), so syntactic variants of one query share a plan;
	// \canon <xpath> prints the canonical form without evaluating.
	canon bool
	plans *plancache.Cache
}

func newShell(doc dom.Document, out io.Writer) *shell {
	return &shell{
		doc:   doc,
		out:   out,
		ctx:   natix.RootNode(doc),
		vars:  map[string]xval.Value{},
		ns:    map[string]string{},
		plans: plancache.New(64, 0),
	}
}

// compile returns the prepared plan for expr under the current session
// options, reusing a previous compilation when nothing relevant changed:
// evaluating, \explain-ing and \analyze-ing the same expression share one
// plan. Mode, namespace and limit changes alter the cache key, so they
// naturally recompile.
func (s *shell) compile(expr string) (*natix.Prepared, error) {
	if s.canon {
		p, _, _, err := s.plans.GetOrCompileCanonical(expr, s.options(), "", 0, 0)
		return p, err
	}
	p, _, err := s.plans.GetOrCompile(expr, s.options())
	return p, err
}

// exec processes one input line; it returns true to quit.
func (s *shell) exec(line string) bool {
	line = strings.TrimSpace(line)
	switch {
	case line == "":
		return false
	case line == "\\quit" || line == "\\q":
		return true
	case line == "\\help":
		s.help()
		return false
	case strings.HasPrefix(line, "\\"):
		s.command(line)
		return false
	}
	s.eval(line)
	return false
}

func (s *shell) help() {
	fmt.Fprint(s.out, `commands:
  <xpath>                 evaluate against the current context node
  \explain <xpath>        show the algebra plan
  \physical <xpath>       show the physical plan with NVM disassembly
  \analyze <xpath>        run instrumented and show the annotated operator tree
  \metrics on|off|show    toggle metrics collection / dump the registry
  \canon on|off           compile through the canonicalizer (variants share plans)
  \canon <xpath>          print the canonical form of an expression
  \mode canonical|improved  switch the translation (current shown by \mode)
  \pathindex on|off       toggle path-index access-path selection
  \set $name <value>      bind a variable (number if numeric, else string)
  \ns prefix=uri          declare a namespace prefix
  \context <xpath>        move the context node to the first result
  \root                   reset the context node to the document node
  \stats on|off           toggle engine statistics
  \quit
`)
}

func (s *shell) options() natix.Options {
	return natix.Options{Mode: s.mode, Namespaces: s.ns, Limits: natix.Limits{MaxBytes: s.maxMem}, EnablePathIndex: s.pathIndex}
}

// runQuery evaluates under the shell's timeout, if any.
func (s *shell) runQuery(q *natix.Query) (*natix.Result, error) {
	ctx := context.Background()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	return q.RunContext(ctx, s.ctx, s.vars)
}

func (s *shell) command(line string) {
	cmd, arg, _ := strings.Cut(line[1:], " ")
	arg = strings.TrimSpace(arg)
	switch cmd {
	case "explain", "physical":
		q, err := s.compile(arg)
		if err != nil {
			fmt.Fprintln(s.out, "error:", err)
			return
		}
		if cmd == "explain" {
			fmt.Fprint(s.out, q.ExplainAlgebra())
		} else {
			fmt.Fprint(s.out, q.ExplainPhysical())
		}
	case "mode":
		switch arg {
		case "canonical":
			s.mode = natix.Canonical
		case "improved":
			s.mode = natix.Improved
		case "":
		default:
			fmt.Fprintln(s.out, "error: unknown mode", arg)
			return
		}
		names := map[natix.TranslationMode]string{natix.Improved: "improved", natix.Canonical: "canonical"}
		fmt.Fprintln(s.out, "mode:", names[s.mode])
	case "set":
		name, val, ok := strings.Cut(arg, " ")
		name = strings.TrimPrefix(name, "$")
		if !ok || name == "" {
			fmt.Fprintln(s.out, "usage: \\set $name value")
			return
		}
		val = strings.TrimSpace(val)
		if n := xval.ParseNumber(val); !isNaN(n) {
			s.vars[name] = xval.Num(n)
		} else {
			s.vars[name] = xval.Str(val)
		}
		fmt.Fprintf(s.out, "$%s = %s\n", name, s.vars[name].String())
	case "ns":
		prefix, uri, ok := strings.Cut(arg, "=")
		if !ok {
			fmt.Fprintln(s.out, "usage: \\ns prefix=uri")
			return
		}
		s.ns[prefix] = uri
		fmt.Fprintf(s.out, "xmlns:%s = %s\n", prefix, uri)
	case "analyze":
		q, err := s.compile(arg)
		if err != nil {
			fmt.Fprintln(s.out, "error:", err)
			return
		}
		a, err := q.ExplainAnalyze(context.Background(), s.ctx, s.vars)
		if err != nil {
			fmt.Fprintln(s.out, "error:", err)
			return
		}
		fmt.Fprint(s.out, a.Tree)
	case "metrics":
		switch arg {
		case "on":
			metrics.Enable()
			fmt.Fprintln(s.out, "metrics: on")
		case "off":
			metrics.Disable()
			fmt.Fprintln(s.out, "metrics: off")
		default:
			fmt.Fprint(s.out, metrics.Default.String())
		}
	case "canon":
		switch arg {
		case "on":
			s.canon = true
		case "off":
			s.canon = false
		case "":
		default:
			cq, changed := canon.Canonicalize(arg)
			if !changed {
				fmt.Fprintf(s.out, "canonical (unchanged): %s\n", cq)
			} else {
				fmt.Fprintf(s.out, "canonical: %s\n", cq)
			}
			return
		}
		fmt.Fprintln(s.out, "canon:", s.canon)
	case "pathindex":
		switch arg {
		case "on":
			s.pathIndex = true
		case "off":
			s.pathIndex = false
		case "":
		default:
			fmt.Fprintln(s.out, "usage: \\pathindex on|off")
			return
		}
		fmt.Fprintln(s.out, "path index:", s.pathIndex)
	case "context":
		q, err := s.compile(arg)
		if err != nil {
			fmt.Fprintln(s.out, "error:", err)
			return
		}
		res, err := s.runQuery(q)
		if err != nil {
			fmt.Fprintln(s.out, "error:", err)
			return
		}
		nodes, ok := res.SortedNodeSet()
		if !ok {
			fmt.Fprintln(s.out, "error: result is not a node-set, context unchanged")
			return
		}
		if len(nodes) == 0 {
			fmt.Fprintln(s.out, "error: empty result, context unchanged")
			return
		}
		s.ctx = nodes[0]
		fmt.Fprintf(s.out, "context: %s\n", s.ctx)
	case "root":
		s.ctx = natix.RootNode(s.doc)
		fmt.Fprintln(s.out, "context: document node")
	case "stats":
		s.stats = arg != "off"
		fmt.Fprintln(s.out, "stats:", s.stats)
	default:
		fmt.Fprintf(s.out, "error: unknown command \\%s (try \\help)\n", cmd)
	}
}

func (s *shell) eval(expr string) {
	q, err := s.compile(expr)
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	res, err := s.runQuery(q)
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	if !res.Value.IsNodeSet() {
		fmt.Fprintln(s.out, res.Value.String())
	} else {
		nodes, _ := res.SortedNodeSet()
		for i, n := range nodes {
			if i == 20 {
				fmt.Fprintf(s.out, "... %d more\n", len(nodes)-i)
				break
			}
			fmt.Fprintln(s.out, describe(n))
		}
		fmt.Fprintf(s.out, "%d node(s)\n", len(nodes))
	}
	if s.stats {
		st := res.Stats
		fmt.Fprintf(s.out, "stats: axis-steps=%d tuples=%d dup-dropped=%d memo=%d/%d sorted=%d\n",
			st.AxisSteps, st.Tuples, st.DupDropped, st.MemoHits, st.MemoHits+st.MemoMisses, st.Sorted)
	}
}

func describe(n natix.Node) string {
	switch n.Kind() {
	case dom.KindAttribute:
		return fmt.Sprintf("@%s=%q", n.Name(), n.Value())
	case dom.KindText:
		return fmt.Sprintf("text %q", clip(n.Value()))
	case dom.KindElement:
		return fmt.Sprintf("<%s> %q", n.Name(), clip(n.StringValue()))
	default:
		return n.String()
	}
}

func clip(s string) string {
	if len(s) > 60 {
		return s[:60] + "..."
	}
	return s
}

func isNaN(f float64) bool { return f != f }
