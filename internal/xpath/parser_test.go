package xpath

import (
	"strings"
	"testing"

	"natix/internal/dom"
)

// mustParse is the test-local replacement for the removed library MustParse:
// the library itself no longer contains any panic path.
func mustParse(expr string) Expr {
	e, err := Parse(expr)
	if err != nil {
		panic(err)
	}
	return e
}

// TestParseRoundTrip checks that expressions parse and render to the
// expected unabbreviated form.
func TestParseRoundTrip(t *testing.T) {
	tests := []struct {
		in   string
		want string // "" means same as in
	}{
		{"child::a", ""},
		{"/child::a/child::b", "/child::a/child::b"},
		{"a/b", "child::a/child::b"},
		{"//a", "/descendant-or-self::node()/child::a"},
		{"a//b", "child::a/descendant-or-self::node()/child::b"},
		{"/", "/"},
		{".", "self::node()"},
		{"..", "parent::node()"},
		{"@id", "attribute::id"},
		{"@*", "attribute::*"},
		{"*", "child::*"},
		{"ns:*", "child::ns:*"},
		{"ns:a", "child::ns:a"},
		{"text()", "child::text()"},
		{"comment()", "child::comment()"},
		{"node()", "child::node()"},
		{"processing-instruction()", "child::processing-instruction()"},
		{"processing-instruction('tgt')", "child::processing-instruction('tgt')"},
		{"ancestor-or-self::*", ""},
		{"preceding-sibling::a", ""},
		{"a[1]", "child::a[1]"},
		{"a[position() = last()]", "child::a[(position() = last())]"},
		{"a[@id = '3'][2]", "child::a[(attribute::id = '3')][2]"},
		{"1 + 2 * 3", "(1 + (2 * 3))"},
		{"1 - 2 - 3", "((1 - 2) - 3)"},
		{"6 div 2 mod 4", "((6 div 2) mod 4)"},
		{"-1", "-(1)"},
		{"--1", "-(-(1))"},
		{"-a", "-(child::a)"},
		{"a or b and c", "(child::a or (child::b and child::c))"},
		{"a = b != c", "((child::a = child::b) != child::c)"},
		{"a < b <= c", "((child::a < child::b) <= child::c)"},
		{"a > b >= c", "((child::a > child::b) >= child::c)"},
		{"a | b | c", "(child::a | child::b | child::c)"},
		{"count(a)", "count(child::a)"},
		{"concat('x', 'y', 'z')", "concat('x', 'y', 'z')"},
		{"true()", "true()"},
		{"$var", "$var"},
		{"$pre:var", "$pre:var"},
		{"'lit'", "'lit'"},
		{`"lit"`, "'lit'"},
		{"3.14", "3.14"},
		{".5", "0.5"},
		{"(a)", "child::a"},
		{"(//a)[1]", "(/descendant-or-self::node()/child::a)[1]"},
		{"$x/y", "$x/child::y"},
		{"$x//y", "$x/descendant-or-self::node()/child::y"},
		{"id('i1')/..", "id('i1')/parent::node()"},
		{"key[. = 'x']", "child::key[(self::node() = 'x')]"},
		{"* * *", "(child::* * child::*)"},
		{"div div div", "(child::div div child::div)"},
		{"a[b/c]", "child::a[child::b/child::c]"},
		{"a[//b]", "child::a[/descendant-or-self::node()/child::b]"},
		{"string-length('ab') > 1", "(string-length('ab') > 1)"},
		{"../@id", "parent::node()/attribute::id"},
		{"//@id", "/descendant-or-self::node()/attribute::id"},
		{"a/self::b", "child::a/self::b"},
		{"namespace::*", "namespace::*"},
		{"count(a | b)", "count((child::a | child::b))"},
	}
	for _, tc := range tests {
		e, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		want := tc.want
		if want == "" {
			want = tc.in
		}
		if got := e.String(); got != want {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.in, got, want)
		}
	}
}

// TestParseIdempotent: rendering and re-parsing yields the same rendering.
func TestParseIdempotent(t *testing.T) {
	exprs := []string{
		"/child::xdoc/descendant::*/ancestor::*/descendant::*/attribute::id",
		"a[position() = last() - 1]/b[count(c) = 2]",
		"sum(//price) div count(//price)",
		"book[author = 'X' or author = 'Y'][last()]",
		"//a[@k and @l]/text()",
		"-(-3) + 4 * -2",
	}
	for _, in := range exprs {
		e1 := mustParse(in)
		e2, err := Parse(e1.String())
		if err != nil {
			t.Fatalf("re-parse of %q (%q): %v", in, e1.String(), err)
		}
		if e1.String() != e2.String() {
			t.Errorf("not idempotent: %q -> %q -> %q", in, e1.String(), e2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"/a/",
		"a b",
		"a[",
		"a]",
		"(a",
		"a)",
		"@@a",
		"foo::a",
		"!a",
		"a !",
		"a !=",
		"$",
		"1.2.3",
		"'unterminated",
		"f(a,)",
		"a[]",
		"node()()",
		"text(@a)",
		"child::5",
		"a:::b",
		"name(  ",
		"elem(",
		"a//",
		"//",
		"..[1] extra",
		"a or",
		"* and",
	}
	for _, s := range bad {
		if e, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): expected error, got %s", s, e)
		}
	}
}

func TestStepStructure(t *testing.T) {
	e := mustParse("/child::xdoc/descendant::*/ancestor::*[1]/@id")
	lp, ok := e.(*LocationPath)
	if !ok {
		t.Fatalf("expected LocationPath, got %T", e)
	}
	if !lp.Absolute || len(lp.Steps) != 4 {
		t.Fatalf("absolute=%v steps=%d", lp.Absolute, len(lp.Steps))
	}
	wantAxes := []dom.Axis{dom.AxisChild, dom.AxisDescendant, dom.AxisAncestor, dom.AxisAttribute}
	for i, s := range lp.Steps {
		if s.Axis != wantAxes[i] {
			t.Errorf("step %d axis = %v, want %v", i, s.Axis, wantAxes[i])
		}
	}
	if len(lp.Steps[2].Preds) != 1 {
		t.Errorf("ancestor step predicates = %d, want 1", len(lp.Steps[2].Preds))
	}
	if lp.Steps[3].Test.Local != "id" {
		t.Errorf("attribute test = %v", lp.Steps[3].Test)
	}
}

func TestPathExprStructure(t *testing.T) {
	e := mustParse("id('x')/a")
	pe, ok := e.(*Path)
	if !ok {
		t.Fatalf("expected Path, got %T", e)
	}
	if _, ok := pe.Base.(*FuncCall); !ok {
		t.Errorf("base = %T, want FuncCall", pe.Base)
	}
	if len(pe.Rel.Steps) != 1 || pe.Rel.Absolute {
		t.Errorf("rel = %v", pe.Rel)
	}
	// A filtered primary keeps its predicates on the Filter node.
	e2 := mustParse("(//a)[2]/b")
	pe2 := e2.(*Path)
	f, ok := pe2.Base.(*Filter)
	if !ok {
		t.Fatalf("base = %T, want Filter", pe2.Base)
	}
	if len(f.Preds) != 1 {
		t.Errorf("filter predicates = %d", len(f.Preds))
	}
}

func TestWalk(t *testing.T) {
	e := mustParse("a[b = 1]/c[position() < last()] | d")
	var funcs, steps int
	Walk(e, func(x Expr) bool {
		switch x.(type) {
		case *FuncCall:
			funcs++
		case *LocationPath:
			steps += len(x.(*LocationPath).Steps)
		}
		return true
	})
	if funcs != 2 {
		t.Errorf("function calls found = %d, want 2 (position, last)", funcs)
	}
	if steps < 3 {
		t.Errorf("steps found = %d", steps)
	}
	// Pruning stops descent.
	count := 0
	Walk(e, func(x Expr) bool { count++; return false })
	if count != 1 {
		t.Errorf("pruned walk visited %d nodes", count)
	}
}

func TestLexerDisambiguation(t *testing.T) {
	// '*' after an operand is multiplication; otherwise a wildcard.
	if _, err := Parse("2*3"); err != nil {
		t.Errorf("2*3: %v", err)
	}
	if e := mustParse("a/*"); !strings.Contains(e.String(), "child::*") {
		t.Errorf("a/* = %s", e)
	}
	// Operator names in operand position are ordinary element names.
	e := mustParse("and/or/div/mod")
	want := "child::and/child::or/child::div/child::mod"
	if e.String() != want {
		t.Errorf("operator-name elements: %s, want %s", e, want)
	}
	// Variables are operands: '$a and $b'.
	if _, err := Parse("$a and $b"); err != nil {
		t.Errorf("$a and $b: %v", err)
	}
}
