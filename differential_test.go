package natix

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"natix/internal/conformance"
	"natix/internal/dom"
	"natix/internal/interp"
	"natix/internal/sem"
	"natix/internal/xval"
)

// randomDoc builds a random document with a small name alphabet so that
// queries hit often.
func randomDoc(rng *rand.Rand, maxNodes int) *dom.MemDoc {
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

// randomQuery generates a random XPath expression over the alphabet.
func randomQuery(rng *rand.Rand) string {
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
		"[.//c]", "[../b]", "[a = b]", "[@k != following-sibling::*/@k]",
		"[contains(., '1')]", "[position() mod 2 = 1]",
		"[count(preceding-sibling::*) < 2]", "[self::a or self::b]",
		"[starts-with(name(), 'a')]", "[sum(*/@k) > 1]",
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
		return "concat(name(" + base + "), '-', " + path() + ")"
	case 10:
		return "normalize-space(" + base + ")"
	default:
		return base
	}
}

// TestDifferential cross-checks the algebraic engine (all translation
// configurations) against the reference interpreter on random documents and
// queries.
func TestDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20050405)) // ICDE 2005 conference date
	docs := make([]*dom.MemDoc, 6)
	for i := range docs {
		docs[i] = randomDoc(rng, 40+i*30)
	}
	iterations := 400
	if testing.Short() {
		iterations = 100
	}
	for i := 0; i < iterations; i++ {
		expr := randomQuery(rng)
		d := docs[rng.Intn(len(docs))]
		root := RootNode(d)

		ref, err := interp.Compile(expr, nil, interp.Options{DedupSteps: true})
		if err != nil {
			t.Fatalf("interp compile %q: %v", expr, err)
		}
		want, err := ref.Eval(root, nil)
		if err != nil {
			t.Fatalf("interp eval %q: %v", expr, err)
		}
		wantR := conformance.Render(want)

		for _, cfg := range engineConfigs {
			q, err := cfg.compile(expr, nil)
			if err != nil {
				t.Fatalf("%s compile %q: %v", cfg.name, expr, err)
			}
			res, err := q.Run(root, nil)
			if err != nil {
				t.Fatalf("%s run %q: %v", cfg.name, expr, err)
			}
			if got := conformance.Render(res.Value); got != wantR {
				t.Errorf("%s: %q diverges\n got %s\nwant %s\nplan:\n%s",
					cfg.name, expr, got, wantR, q.ExplainAlgebra())
				if testing.Verbose() {
					t.Logf("doc: %s", dom.SerializeString(d))
				}
				return
			}
		}
	}
}

// TestDifferentialRelativeContexts repeats the cross-check with non-root
// context nodes and relative queries.
func TestDifferentialRelativeContexts(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d := randomDoc(rng, 120)
	var elems []dom.NodeID
	for id := dom.NodeID(1); int(id) <= d.NodeCount(); id++ {
		if d.Kind(id) == dom.KindElement {
			elems = append(elems, id)
		}
	}
	queries := []string{
		"b", "*", "..", ".//c", "ancestor::*", "following::b[1]",
		"preceding-sibling::*[last()]", "descendant::*[@k]/..",
		"count(descendant::*)", "self::node()/descendant::b",
		"b | c | ../d", ".//*[. = ancestor::*/@k]",
	}
	for _, expr := range queries {
		ref, err := interp.Compile(expr, nil, interp.Options{DedupSteps: true})
		if err != nil {
			t.Fatalf("compile %q: %v", expr, err)
		}
		for _, cfg := range engineConfigs {
			q, err := cfg.compile(expr, nil)
			if err != nil {
				t.Fatalf("%s compile %q: %v", cfg.name, expr, err)
			}
			for _, ctxID := range elems {
				ctx := dom.Node{Doc: d, ID: ctxID}
				want, err := ref.Eval(ctx, nil)
				if err != nil {
					t.Fatalf("interp %q at #%d: %v", expr, ctxID, err)
				}
				res, err := q.Run(ctx, nil)
				if err != nil {
					t.Fatalf("%s %q at #%d: %v", cfg.name, expr, ctxID, err)
				}
				if got, wantR := conformance.Render(res.Value), conformance.Render(want); got != wantR {
					t.Fatalf("%s: %q at node #%d diverges\n got %s\nwant %s",
						cfg.name, expr, ctxID, got, wantR)
				}
			}
		}
	}
}

// TestDifferentialVariables cross-checks variable-heavy expressions.
func TestDifferentialVariables(t *testing.T) {
	d := conformance.Doc(t, "basic")
	root := RootNode(d)
	vars := map[string]xval.Value{
		"n": xval.Num(2),
		"s": xval.Str("y"),
		"b": xval.Bool(true),
	}
	queries := []string{
		"//a[$n]", "//b[. = $s]", "//*[@id > $n]", "$n + count(//b)",
		"//a[$b]", "concat($s, string($n))", "//b = $s", "$n > //b/@id",
	}
	for _, expr := range queries {
		ref, err := interp.Compile(expr, &sem.Env{}, interp.Options{DedupSteps: true})
		if err != nil {
			t.Fatalf("compile %q: %v", expr, err)
		}
		want, err := ref.Eval(root, vars)
		if err != nil {
			t.Fatalf("interp %q: %v", expr, err)
		}
		for _, cfg := range engineConfigs {
			q, err := cfg.compile(expr, nil)
			if err != nil {
				t.Fatalf("%s compile %q: %v", cfg.name, expr, err)
			}
			res, err := q.Run(root, vars)
			if err != nil {
				t.Fatalf("%s %q: %v", cfg.name, expr, err)
			}
			if got, wantR := conformance.Render(res.Value), conformance.Render(want); got != wantR {
				t.Errorf("%s: %q diverges: got %s want %s", cfg.name, expr, got, wantR)
			}
		}
	}
}
