package natix

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"natix/internal/dom"
	"natix/internal/interp"
	"natix/internal/store"
	"natix/internal/xval"
)

// windowDoc builds a random document with every node kind a positional
// window counts over: elements a, b and c with attributes a and k,
// namespace declarations (one binds the prefix a), text, comments and
// processing instructions.
func windowDoc(rng *rand.Rand, maxNodes int) *dom.MemDoc {
	b := dom.NewBuilder()
	names := []string{"a", "b", "c"}
	count := 0
	var build func(depth int)
	build = func(depth int) {
		// Long sibling lists near the root, so that positions up to 7
		// and last() - 6 have something to count.
		for n := 1 + rng.Intn(9-2*depth); n > 0 && count < maxNodes; n-- {
			count++
			switch rng.Intn(8) {
			case 0:
				b.Text(fmt.Sprint(rng.Intn(3)))
			case 1:
				b.Comment("c")
			case 2:
				b.ProcInstr("a", "d")
			default:
				b.StartElement("", names[rng.Intn(len(names))], "")
				if rng.Intn(6) == 0 {
					b.NSDecl([]string{"a", "p"}[rng.Intn(2)], "urn:x")
				}
				for _, at := range []string{"a", "k"} {
					if rng.Intn(2) == 0 {
						b.Attr("", at, "", fmt.Sprint(rng.Intn(3)))
					}
				}
				if depth < 3 {
					build(depth + 1)
				}
				b.EndElement()
			}
		}
	}
	b.StartElement("", "r", "")
	build(0)
	b.EndElement()
	return b.Doc()
}

// windowSteps returns every axis × node test × window-shaped predicate,
// k from 0 to 6: the forms the improved translation absorbs into the step
// and, for k < 1 or axes without from-end walks, the ones it leaves to
// χ_cp and Tmp^cs.
func windowSteps() []string {
	var preds []string
	for k := 0; k <= 6; k++ {
		preds = append(preds,
			fmt.Sprintf("[%d]", k),
			fmt.Sprintf("[position() < %d]", k),
			fmt.Sprintf("[position() <= %d]", k),
			fmt.Sprintf("[last() - %d]", k))
	}
	preds = append(preds, "[last()]")
	var steps []string
	for a := 0; a < dom.AxisCount; a++ {
		for _, test := range []string{"*", "a", "node()", "text()"} {
			for _, p := range preds {
				steps = append(steps, dom.Axis(a).String()+"::"+test+p)
			}
		}
	}
	return steps
}

// renderIDs renders a result by node IDs in document order, so that the
// answers of a MemDoc and of its store image compare equal.
func renderIDs(v xval.Value) string {
	if !v.IsNodeSet() {
		return v.Kind.String() + ":" + v.String()
	}
	nodes := append([]dom.Node(nil), v.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return dom.CompareOrder(nodes[i], nodes[j]) < 0 })
	var sb strings.Builder
	for _, n := range nodes {
		fmt.Fprintf(&sb, "%d ", n.ID)
	}
	return sb.String()
}

// TestPositionalWindowsAgainstInterp: every window shape on every axis and
// node test, bare, under a second predicate and nested inside a predicate,
// from every element context, answers as the interpreter does. Improved
// plans (windowed) and Canonical ones (χ_cp and Tmp^cs) run on a MemDoc
// and on its store image at the minimum page size, with and without the
// path index. -short runs a sixth of the queries.
func TestPositionalWindowsAgainstInterp(t *testing.T) {
	rng := rand.New(rand.NewSource(1205))
	mem := windowDoc(rng, 50)
	var img bytes.Buffer
	if err := store.WriteToPageSize(&img, mem, store.MinPageSize); err != nil {
		t.Fatal(err)
	}
	sd, err := store.OpenReaderAt(bytes.NewReader(img.Bytes()), store.Options{BufferPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	var ctxs []dom.NodeID
	for id := dom.NodeID(1); int(id) <= mem.NodeCount(); id++ {
		if mem.Kind(id) == dom.KindElement {
			ctxs = append(ctxs, id)
		}
	}
	var opts []Options
	for _, mode := range []TranslationMode{Improved, Canonical} {
		for _, idx := range []bool{false, true} {
			opts = append(opts, Options{Mode: mode, EnablePathIndex: idx})
		}
	}
	docs := []Document{mem, sd}
	t.Logf("nodes %d, contexts %d, steps %d", mem.NodeCount(), len(ctxs), len(windowSteps()))
	for i, s := range windowSteps() {
		variants := []string{s, s + "[@k]", s + "[1]", s + "[last()]", "*[" + s + "]", "count(" + s + ")"}
		for j, expr := range variants {
			if testing.Short() && (i*len(variants)+j)%6 != 0 {
				continue
			}
			ref, err := interp.Compile(expr, nil, interp.Options{DedupSteps: true})
			if err != nil {
				t.Fatalf("interp compile %q: %v", expr, err)
			}
			wants := make([]string, len(ctxs))
			for c, id := range ctxs {
				v, err := ref.Eval(dom.Node{Doc: mem, ID: id}, nil)
				if err != nil {
					t.Fatalf("interp %q at #%d: %v", expr, id, err)
				}
				wants[c] = renderIDs(v)
			}
			for _, opt := range opts {
				q, err := CompileWith(expr, opt)
				if err != nil {
					t.Fatalf("compile %q: %v", expr, err)
				}
				for _, d := range docs {
					for c, id := range ctxs {
						res, err := q.Run(Node{Doc: d, ID: id}, nil)
						if err != nil {
							t.Fatalf("%q (%+v) at #%d: %v", expr, opt, id, err)
						}
						if got := renderIDs(res.Value); got != wants[c] {
							t.Fatalf("%q (mode %v, index %v, %T) at #%d:\n got %s\nwant %s\nplan:\n%s",
								expr, opt.Mode, opt.EnablePathIndex, d, id, got, wants[c], q.ExplainAlgebra())
						}
					}
				}
			}
		}
	}
}
