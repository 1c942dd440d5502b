package natix

import (
	"bytes"
	"testing"

	"natix/internal/conformance"
	"natix/internal/dom"
	"natix/internal/interp"
	"natix/internal/sem"
	"natix/internal/store"
)

// setBatchSize overrides the node-column batch size of q's plan (0 is
// physical.DefaultBatchSize) and returns q. Which operators batch is the
// code generator's decision alone; the size only shapes the batches, so
// tests drive the protocol at adversarial sizes through it. Call it before
// the first Run.
func setBatchSize(q *Prepared, size int) *Prepared {
	q.plan.BatchSize = size
	return q
}

// TestConformanceBatchSizes runs every conformance case on the in-memory
// document and on its store image at batch sizes 1 (a refill per node,
// maximal protocol traffic) and 16 (misaligned with every operator
// fan-out). Answers must match the interpreter, and Stats the default-size
// run on the same document.
func TestConformanceBatchSizes(t *testing.T) {
	stores := map[string]*store.Doc{}
	for _, c := range conformance.Cases {
		if c.WantErr {
			continue
		}
		mem := conformance.Doc(t, c.Doc)
		sd, ok := stores[c.Doc]
		if !ok {
			var img bytes.Buffer
			if err := store.WriteTo(&img, mem); err != nil {
				t.Fatal(err)
			}
			var err error
			if sd, err = store.OpenReaderAt(bytes.NewReader(img.Bytes()), store.Options{BufferPages: 8}); err != nil {
				t.Fatal(err)
			}
			stores[c.Doc] = sd
		}
		vars := c.Vars()
		ref, err := interp.Compile(c.Expr, &sem.Env{Namespaces: conformance.Namespaces}, interp.Options{DedupSteps: true})
		if err != nil {
			t.Fatalf("interp compile %q: %v", c.Expr, err)
		}
		want, err := ref.Eval(RootNode(mem), vars)
		if err != nil {
			t.Fatalf("interp eval %q: %v", c.Expr, err)
		}
		wantR := conformance.Render(want)
		q := MustCompileWith(c.Expr, Options{Namespaces: conformance.Namespaces})
		for _, doc := range []dom.Document{mem, sd} {
			def, err := setBatchSize(q, 0).Run(RootNode(doc), vars)
			if err != nil {
				t.Fatalf("%q on %T: %v", c.Expr, doc, err)
			}
			for _, size := range []int{1, 16} {
				res, err := setBatchSize(q, size).Run(RootNode(doc), vars)
				if err != nil {
					t.Fatalf("%q on %T, batch %d: %v", c.Expr, doc, size, err)
				}
				if got := conformance.Render(reanchor(res.Value, mem)); got != wantR {
					t.Errorf("%q on %T, batch %d:\n got %s\nwant %s", c.Expr, doc, size, got, wantR)
				}
				if res.Stats != def.Stats {
					t.Errorf("%q on %T, batch %d: stats %+v, default size %+v", c.Expr, doc, size, res.Stats, def.Stats)
				}
			}
		}
	}
}
