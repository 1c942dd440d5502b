// Package conformance holds an engine-independent XPath 1.0 test suite:
// sample documents, queries with hand-computed expected results, and a
// runner. Both the baseline interpreters and the algebraic engine run the
// same suite, so any divergence between evaluators or from the spec
// surfaces as a test failure.
package conformance

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"natix/internal/dom"
	"natix/internal/xval"
)

// Engine is an XPath evaluator under test.
type Engine interface {
	// Name labels the engine in test output.
	Name() string
	// Eval compiles and evaluates expr against the document's root with
	// the given variable bindings and namespace declarations.
	Eval(doc dom.Document, expr string, vars map[string]xval.Value, ns map[string]string) (xval.Value, error)
}

// Case is one conformance test.
type Case struct {
	// Doc names an entry of Docs.
	Doc string
	// Expr is the XPath expression, evaluated with the document node as
	// context.
	Expr string
	// Want is the rendered expected result (see Render). Ignored if
	// WantErr.
	Want string
	// WantErr expects compilation or evaluation to fail.
	WantErr bool
	// VarNum/VarStr bind variables.
	VarNum map[string]float64
	VarStr map[string]string
}

// Docs are the sample documents, compact (no ignorable whitespace) so that
// positions are easy to compute by hand.
var Docs = map[string]string{
	"basic": `<root><a id="1"><b id="2">x</b><b id="3">y</b><c id="4">z</c></a><a id="5"><b id="6">y</b></a><d id="7"/></root>`,
	"mixed": `<m>t1<x/>t2<!--c1--><?p d?><y>t3</y></m>`,
	"ns":    `<r xmlns:p="urn:p"><p:a/><a/><p:b p:k="1" k="2"/></r>`,
	"nums":  `<ns><n>1</n><n>2</n><n>3</n><n>4</n><v>2.5</v></ns>`,
	"people": `<people><person xml:lang="en"><name>Alice</name><age>30</age></person>` +
		`<person xml:lang="en-US"><name>Bob</name><age>25</age></person>` +
		`<person xml:lang="de"><name>Carl</name><age>35</age></person></people>`,
	"ids":  `<db><item id="i1"><ref>i3</ref></item><item id="i2"><ref>i1 i3</ref></item><item id="i3"/></db>`,
	"deep": `<a id="a"><b id="b"><d id="d"/><e id="e">txt</e></b><c id="c"><f id="f"><g id="g"/></f></c></a>`,
}

// Namespaces are the static namespace declarations supplied to every case.
var Namespaces = map[string]string{"p": "urn:p"}

var (
	parsedMu sync.Mutex
	parsed   = map[string]*dom.MemDoc{}
)

// Doc returns the parsed sample document, cached across cases.
func Doc(t testing.TB, name string) *dom.MemDoc {
	t.Helper()
	d, err := DocErr(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// DocErr is the non-fatal variant of Doc, for callers outside a test
// context (the differential harness, tools).
func DocErr(name string) (*dom.MemDoc, error) {
	parsedMu.Lock()
	defer parsedMu.Unlock()
	if d, ok := parsed[name]; ok {
		return d, nil
	}
	src, ok := Docs[name]
	if !ok {
		return nil, fmt.Errorf("conformance: unknown document %q", name)
	}
	d, err := dom.ParseString(src)
	if err != nil {
		return nil, fmt.Errorf("conformance: parse %q: %v", name, err)
	}
	parsed[name] = d
	return d, nil
}

// Register appends cases to the suite; extension files call it from init so
// every engine's conformance run picks them up.
func Register(cases ...Case) {
	Cases = append(Cases, cases...)
}

// Render produces the canonical comparison form of a value. Node-sets are
// sorted into document order first (XPath 1.0 node-sets are unordered, and
// the paper's engine legitimately produces other orders, section 2.1).
func Render(v xval.Value) string {
	switch v.Kind {
	case xval.KindBoolean:
		return "bool:" + v.String()
	case xval.KindNumber:
		return "num:" + xval.FormatNumber(v.N)
	case xval.KindString:
		return "str:" + v.S
	}
	nodes := append([]dom.Node(nil), v.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return dom.CompareOrder(nodes[i], nodes[j]) < 0 })
	parts := make([]string, len(nodes))
	for i, n := range nodes {
		parts[i] = renderNode(n)
	}
	return "nodes:" + strings.Join(parts, " ")
}

func renderNode(n dom.Node) string {
	d := n.Doc
	switch n.Kind() {
	case dom.KindElement:
		for a := d.FirstAttr(n.ID); a != dom.NilNode; a = d.NextAttr(a) {
			if d.LocalName(a) == "id" && d.NamespaceURI(a) == "" {
				return n.LocalName() + "#" + d.Value(a)
			}
		}
		return n.LocalName()
	case dom.KindAttribute:
		return "@" + n.Name() + "=" + n.Value()
	case dom.KindText:
		return "'" + n.Value() + "'"
	case dom.KindComment:
		return "#comment"
	case dom.KindProcInstr:
		return "?" + n.LocalName()
	case dom.KindNamespace:
		return "%" + n.LocalName()
	case dom.KindDocument:
		return "#doc"
	}
	return "?node"
}

// Vars builds the variable bindings of a case.
func (c *Case) Vars() map[string]xval.Value {
	if len(c.VarNum) == 0 && len(c.VarStr) == 0 {
		return nil
	}
	m := make(map[string]xval.Value, len(c.VarNum)+len(c.VarStr))
	for k, v := range c.VarNum {
		m[k] = xval.Num(v)
	}
	for k, v := range c.VarStr {
		m[k] = xval.Str(v)
	}
	return m
}

// Run executes every case against the engine.
func Run(t *testing.T, eng Engine) { RunCases(t, eng, Cases) }

// RunCases executes the given cases against the engine, one subtest each.
func RunCases(t *testing.T, eng Engine, cases []Case) {
	for i, c := range cases {
		c := c
		name := fmt.Sprintf("%03d_%s", i, sanitize(c.Expr))
		t.Run(name, func(t *testing.T) {
			d := Doc(t, c.Doc)
			got, err := eng.Eval(d, c.Expr, c.Vars(), Namespaces)
			if c.WantErr {
				if err == nil {
					t.Fatalf("%s: %q: expected error, got %s", eng.Name(), c.Expr, Render(got))
				}
				return
			}
			if err != nil {
				t.Fatalf("%s: %q: %v", eng.Name(), c.Expr, err)
			}
			if r := Render(got); r != c.Want {
				t.Errorf("%s: %q on %s:\n got %s\nwant %s", eng.Name(), c.Expr, c.Doc, r, c.Want)
			}
		})
	}
}

func sanitize(s string) string {
	r := strings.NewReplacer("/", "_", " ", "", "::", ".", "[", "(", "]", ")", "'", "", "\"", "")
	out := r.Replace(s)
	if len(out) > 40 {
		out = out[:40]
	}
	return out
}
