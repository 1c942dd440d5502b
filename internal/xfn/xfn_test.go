package xfn

import (
	"math"
	"testing"
	"testing/quick"

	"natix/internal/dom"
	"natix/internal/xval"
)

func parse(t *testing.T, s string) *dom.MemDoc {
	t.Helper()
	d, err := dom.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func elems(d dom.Document, name string) []dom.Node {
	var out []dom.Node
	for id := dom.NodeID(1); int(id) <= d.NodeCount(); id++ {
		if d.Kind(id) == dom.KindElement && (name == "" || d.LocalName(id) == name) {
			out = append(out, dom.Node{Doc: d, ID: id})
		}
	}
	return out
}

func TestSortDedup(t *testing.T) {
	d := parse(t, "<a><b/><c/><d/></a>")
	all := elems(d, "")
	shuffled := []dom.Node{all[3], all[1], all[3], all[0], all[2], all[1]}
	out := SortDedup(shuffled)
	if len(out) != 4 {
		t.Fatalf("dedup kept %d", len(out))
	}
	for i := 1; i < len(out); i++ {
		if dom.CompareOrder(out[i-1], out[i]) >= 0 {
			t.Fatal("not sorted")
		}
	}
	if got := FirstInDocOrder(shuffled); !got.Same(all[0]) {
		t.Errorf("FirstInDocOrder = %v", got)
	}
}

// Property: SortDedup is idempotent and never grows the slice.
func TestSortDedupProperty(t *testing.T) {
	d := parse(t, "<a><b/><c/><d/><e/><f/></a>")
	all := elems(d, "")
	f := func(picks []uint8) bool {
		var in []dom.Node
		for _, p := range picks {
			in = append(in, all[int(p)%len(all)])
		}
		once := SortDedup(append([]dom.Node(nil), in...))
		twice := SortDedup(append([]dom.Node(nil), once...))
		if len(once) > len(in) || len(twice) != len(once) {
			return false
		}
		for i := range once {
			if !once[i].Same(twice[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNameAccessors(t *testing.T) {
	d := parse(t, `<a xmlns:p="urn:p"><p:b/></a>`)
	bs := elems(d, "b")
	if LocalName(bs) != "b" || Name(bs) != "p:b" || NamespaceURI(bs) != "urn:p" {
		t.Errorf("name accessors: %q %q %q", LocalName(bs), Name(bs), NamespaceURI(bs))
	}
	if LocalName(nil) != "" || Name(nil) != "" || NamespaceURI(nil) != "" {
		t.Error("empty node-set name accessors should be empty")
	}
}

func TestSumCount(t *testing.T) {
	d := parse(t, "<a><n>1</n><n>2.5</n><n>x</n></a>")
	ns := elems(d, "n")
	if Count(ns) != 3 {
		t.Errorf("count = %v", Count(ns))
	}
	if s := Sum(ns); !math.IsNaN(s) {
		t.Errorf("sum with NaN member = %v, want NaN", s)
	}
	d2 := parse(t, "<a><n>1</n><n>2.5</n></a>")
	if s := Sum(elems(d2, "n")); s != 3.5 {
		t.Errorf("sum = %v", s)
	}
}

func TestLang(t *testing.T) {
	d := parse(t, `<a xml:lang="en"><b xml:lang="de-AT"><c/></b><d/></a>`)
	c := elems(d, "c")[0]
	if !Lang(c, "de") || !Lang(c, "de-AT") || Lang(c, "en") {
		t.Error("nearest xml:lang should win")
	}
	dnode := elems(d, "d")[0]
	if !Lang(dnode, "en") || !Lang(dnode, "EN") {
		t.Error("inherited xml:lang, case-insensitive")
	}
	noLang := parse(t, "<a><b/></a>")
	if Lang(elems(noLang, "b")[0], "en") {
		t.Error("no xml:lang anywhere")
	}
}

func TestIDIndex(t *testing.T) {
	d := parse(t, `<a><x id="one"/><y id="two"/><z id="one"/></a>`)
	n := d.ElementByID("one")
	if n == dom.NilNode || d.LocalName(n) != "x" {
		t.Errorf("first element with id should win: %v", n)
	}
	if d.ElementByID("three") != dom.NilNode {
		t.Error("missing id resolved")
	}
	// The map is the document's own: another document resolves the same
	// value to its own element.
	d2 := parse(t, `<a><q id="one"/></a>`)
	if n2 := d2.ElementByID("one"); n2 == dom.NilNode || d2.LocalName(n2) != "q" {
		t.Errorf("per-document index broken: %v", n2)
	}
}

func TestIDFunction(t *testing.T) {
	d := parse(t, `<a><x id="i1">i2 i3</x><y id="i2"/><z id="i3"/></a>`)
	got := ID(d, xval.Str(" i1\ti2  "))
	if len(got) != 2 || d.LocalName(got[0].ID) != "x" || d.LocalName(got[1].ID) != "y" {
		t.Errorf("id string: %v", got)
	}
	// Node-set input: string-values are tokenized.
	x := dom.Node{Doc: d, ID: d.ElementByID("i1")}
	got2 := ID(d, xval.NodeSet([]dom.Node{x}))
	if len(got2) != 2 || d.LocalName(got2[0].ID) != "y" || d.LocalName(got2[1].ID) != "z" {
		t.Errorf("id node-set: %v", got2)
	}
	if got3 := ID(d, xval.Str("")); len(got3) != 0 {
		t.Errorf("id empty: %v", got3)
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize(" a\tb\r\nc  d ")
	if len(got) != 4 || got[0] != "a" || got[3] != "d" {
		t.Errorf("Tokenize = %v", got)
	}
	if len(Tokenize("")) != 0 {
		t.Error("Tokenize empty")
	}
}
