package natix

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"natix/internal/conformance"
	"natix/internal/dom"
	"natix/internal/store"
)

// The id() map belongs to the document, not to the plan: one cached plan
// resolves id() through whatever document it runs on, a committed value
// update is visible to it at once, and goroutines sharing the plan build
// each document's map exactly once.

// TestIDAfterCommittedUpdate: a cached plan, a freshly compiled plan and
// the interpreter agree on id() after a commit rewrites an id attribute.
func TestIDAfterCommittedUpdate(t *testing.T) {
	mem, err := dom.ParseString(`<r><a id="x"/><b id="y"/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.natix")
	if err := store.Write(path, mem); err != nil {
		t.Fatal(err)
	}
	u, err := store.OpenUpdatable(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	d := u.Doc()
	root := RootNode(d)

	cached := map[string]*Prepared{}
	answer := func(expr string) (cachedAns, freshAns, interpAns string) {
		t.Helper()
		if cached[expr] == nil {
			cached[expr] = MustCompile(expr)
		}
		for i, q := range []*Prepared{cached[expr], MustCompile(expr)} {
			res, err := q.Run(root, nil)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				cachedAns = conformance.Render(res.Value)
			} else {
				freshAns = conformance.Render(res.Value)
			}
		}
		return cachedAns, freshAns, interpAnswer(t, expr, nil, root)
	}
	check := func(expr, want string) {
		t.Helper()
		c, f, i := answer(expr)
		if c != want || f != want || i != want {
			t.Fatalf("%s: cached plan %s, fresh plan %s, interpreter %s; want %s", expr, c, f, i, want)
		}
	}
	check("id('x')", "nodes:a#x")
	check("id('z')", "nodes:")

	var attr dom.NodeID
	for id := dom.NodeID(1); int(id) <= d.NodeCount(); id++ {
		if d.Kind(id) == dom.KindAttribute && d.Value(id) == "x" {
			attr = id
		}
	}
	tx := u.Begin()
	if err := tx.SetValue(attr, "z"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	check("id('x')", "nodes:")
	check("id('z')", "nodes:a#z")
	check("id('y')", "nodes:b#y")
}

// idRefDoc cross-references n items: each ref names two other items' ids.
func idRefDoc(n int) string {
	var sb strings.Builder
	sb.WriteString("<db>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<item id="i%d"><ref>i%d i%d</ref></item>`, i, (i*7+1)%n, (i*3+2)%n)
	}
	sb.WriteString("</db>")
	return sb.String()
}

// TestIDMapSharedPlanConcurrent: 8 goroutines share cached id() plans over
// one MemDoc, and over 8 clones of one store image. Each document's map is
// built once, and every answer is the interpreter's.
func TestIDMapSharedPlanConcurrent(t *testing.T) {
	queries := []string{"id(//ref)", "count(id(//ref)/ref)", "id('i3 i5')/ref", "//item[id(ref)/@id = 'i9']"}
	src := idRefDoc(300)
	ref, err := ParseDocumentString(src)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(queries))
	shared := make([]*Prepared, len(queries))
	for i, expr := range queries {
		want[i] = interpAnswer(t, expr, nil, RootNode(ref))
		shared[i] = MustCompile(expr)
	}

	mem, err := ParseDocumentString(src)
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := store.WriteTo(&img, mem); err != nil {
		t.Fatal(err)
	}
	sd, err := store.OpenReaderAt(bytes.NewReader(img.Bytes()), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	for _, c := range []struct {
		name    string
		rootFor func() Node
	}{
		{"mem", func() Node { return RootNode(mem) }},
		{"store", func() Node { return RootNode(sd.Clone()) }},
	} {
		builds := dom.IDMapBuilds()
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			root := c.rootFor()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < 5; r++ {
					for k := range queries {
						i := (k + w + r) % len(queries)
						res, err := shared[i].Run(root, nil)
						if err != nil {
							errs <- err
							return
						}
						if got := conformance.Render(res.Value); got != want[i] {
							errs <- fmt.Errorf("%s worker %d: %s = %s, interpreter %s", c.name, w, queries[i], got, want[i])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if n := dom.IDMapBuilds() - builds; n != 1 {
			t.Errorf("%s: %d ID maps built, want 1", c.name, n)
		}
	}
}
