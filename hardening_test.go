// Hardening tests: cancellation, deadlines, resource limits, injected store
// faults, and the panic-safe boundary. The leak harness wraps every iterator
// of a plan and asserts that however a run ends — exhausted, cancelled,
// over budget, or faulted — Open/Close calls balance and no buffer page
// stays pinned.
package natix

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"natix/internal/gen"
	"natix/internal/physical"
	"natix/internal/store"
)

// iterCounts tracks the lifecycle of one wrapped iterator.
type iterCounts struct {
	opens  int // successful Open calls
	closes int // Close calls
}

type countedIter struct {
	physical.Iter
	c *iterCounts
}

func (i *countedIter) Open() error {
	err := i.Iter.Open()
	if err == nil {
		i.c.opens++
	}
	return err
}

func (i *countedIter) Close() error {
	i.c.closes++
	return i.Iter.Close()
}

// leakTracker is a Plan.WrapIter hook counting every iterator's lifecycle.
type leakTracker struct {
	counts []*iterCounts
}

func (lt *leakTracker) wrap(it physical.Iter) physical.Iter {
	c := &iterCounts{}
	lt.counts = append(lt.counts, c)
	return &countedIter{Iter: it, c: c}
}

func (lt *leakTracker) assertBalanced(t *testing.T, label string) {
	t.Helper()
	if len(lt.counts) == 0 {
		t.Fatalf("%s: leak tracker saw no iterators", label)
	}
	for i, c := range lt.counts {
		if c.opens != c.closes {
			t.Errorf("%s: iterator %d leaked: %d opens, %d closes", label, i, c.opens, c.closes)
		}
	}
}

// trackedRun executes the query with a fresh leak tracker installed.
func trackedRun(q *Query, ctx context.Context, node Node, vars map[string]Value) (*Result, error, *leakTracker) {
	lt := &leakTracker{}
	q.plan.WrapIter = lt.wrap
	defer func() { q.plan.WrapIter = nil }()
	res, err := q.RunContext(ctx, node, vars)
	return res, err, lt
}

// storeDoc writes the generated document into an in-memory store image and
// opens it, optionally through a FaultReader.
func storeDoc(t *testing.T, elements int, fr **store.FaultReader) *store.Doc {
	t.Helper()
	mem := gen.Generate(gen.Params{Elements: elements, Fanout: 6})
	var buf bytes.Buffer
	if err := store.WriteTo(&buf, mem); err != nil {
		t.Fatal(err)
	}
	var r = &store.FaultReader{R: bytes.NewReader(buf.Bytes())}
	if fr != nil {
		*fr = r
	}
	d, err := store.OpenReaderAt(r, store.Options{BufferPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCancelledContext(t *testing.T) {
	d := storeDoc(t, 500, nil)
	q := MustCompile("//e[@id mod 7 = 0]/ancestor::*")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the run must abort, not complete
	res, err, lt := trackedRun(q, ctx, RootNode(d), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (res %v), want context.Canceled", err, res)
	}
	lt.assertBalanced(t, "cancelled")
	d.ReleaseRecordCache()
	if n := d.PinnedPages(); n != 0 {
		t.Errorf("%d pages still pinned after cancelled run", n)
	}
}

func TestDeadlineExceeded(t *testing.T) {
	// The acceptance scenario: a 10ms deadline on a large document. The
	// query is quadratic in document size, so it cannot finish in time.
	d := storeDoc(t, 4000, nil)
	q := MustCompile("/descendant::e[count(descendant::e/following::e) >= 0]")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err, lt := trackedRun(q, ctx, RootNode(d), nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	lt.assertBalanced(t, "deadline")
	d.ReleaseRecordCache()
	if n := d.PinnedPages(); n != 0 {
		t.Errorf("%d pages still pinned after deadline", n)
	}
}

func TestTupleLimit(t *testing.T) {
	d := gen.Generate(gen.Params{Elements: 2000, Fanout: 6})
	q, err := CompileWith("//e/descendant::*", Options{Limits: Limits{MaxTuples: 100}})
	if err != nil {
		t.Fatal(err)
	}
	_, err, lt := trackedRun(q, context.Background(), RootNode(d), nil)
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LimitError", err)
	}
	if le.Limit != 100 {
		t.Errorf("LimitError.Limit = %d", le.Limit)
	}
	lt.assertBalanced(t, "tuple limit")
}

func TestByteLimit(t *testing.T) {
	d := gen.Generate(gen.Params{Elements: 2000, Fanout: 6})
	// Sorting all ids materializes far more than 4 KB.
	q, err := CompileWith("//e[@id < 1000000]", Options{Limits: Limits{MaxBytes: 4 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run(RootNode(d), nil)
	if err == nil {
		// This query shape may not materialize; use one that must sort.
		t.Skipf("query did not materialize enough (res %d nodes)", len(res.Value.Nodes))
	}
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LimitError", err)
	}
}

func TestStepLimit(t *testing.T) {
	d := gen.Generate(gen.Params{Elements: 2000, Fanout: 6})
	q, err := CompileWith("count(//e[@id mod 3 = 0])", Options{Limits: Limits{MaxSteps: 50}})
	if err != nil {
		t.Fatal(err)
	}
	_, err, lt := trackedRun(q, context.Background(), RootNode(d), nil)
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LimitError", err)
	}
	lt.assertBalanced(t, "step limit")
}

func TestLimitErrorNamesBudget(t *testing.T) {
	msgs := map[string]Limits{
		"tuples":             {MaxTuples: 1},
		"nvm steps":          {MaxSteps: 1},
		"materialized bytes": {MaxBytes: 1},
	}
	d := gen.Generate(gen.Params{Elements: 500, Fanout: 6})
	for want, lim := range msgs {
		q, err := CompileWith("//e[@id mod 2 = 0]/ancestor::e", Options{Limits: lim})
		if err != nil {
			t.Fatal(err)
		}
		_, err = q.Run(RootNode(d), nil)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("limits %+v: err %v does not name budget %q", lim, err, want)
		}
	}
}

func TestStoreFaultFailsRun(t *testing.T) {
	var fr *store.FaultReader
	d := storeDoc(t, 2000, &fr)
	q := MustCompile("//e[@id mod 5 = 0]/ancestor::*")

	// Let a few page reads through, then fail the medium.
	fr.SetFailAfter(3)
	res, err, lt := trackedRun(q, context.Background(), RootNode(d), nil)
	if err == nil {
		t.Fatalf("faulted run reported success: %d nodes", len(res.Value.Nodes))
	}
	if !errors.Is(err, store.ErrInjectedFault) {
		t.Fatalf("err = %v, want the injected fault", err)
	}
	lt.assertBalanced(t, "store fault")
	d.ReleaseRecordCache()
	if n := d.PinnedPages(); n != 0 {
		t.Errorf("%d pages still pinned after fault", n)
	}
}

func TestCleanRunIsBalanced(t *testing.T) {
	d := storeDoc(t, 500, nil)
	for _, expr := range []string{
		"//e[@id mod 7 = 0]/ancestor::*",
		"count(//*)",
		"sum(//e/@id)",
		"/xdoc/e[position() = last()]",
	} {
		q := MustCompile(expr)
		_, err, lt := trackedRun(q, context.Background(), RootNode(d), nil)
		if err != nil {
			t.Fatalf("%q: %v", expr, err)
		}
		lt.assertBalanced(t, expr)
	}
	d.ReleaseRecordCache()
	if n := d.PinnedPages(); n != 0 {
		t.Errorf("%d pages pinned after clean runs", n)
	}
}

func TestInternalErrorBoundary(t *testing.T) {
	q := MustCompile("count(//e)")
	// Force a panic inside the run by sabotaging the compiled plan.
	q.plan.WrapIter = func(physical.Iter) physical.Iter { return nil }
	d := gen.Generate(gen.Params{Elements: 10, Fanout: 2})
	res, err := q.RunContext(context.Background(), RootNode(d), nil)
	q.plan.WrapIter = nil
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (res %v), want *InternalError", err, res)
	}
	if ie.Expr != "count(//e)" {
		t.Errorf("InternalError.Expr = %q", ie.Expr)
	}
	if len(ie.Stack) == 0 {
		t.Error("InternalError.Stack empty")
	}
	if !strings.Contains(ie.Error(), "count(//e)") {
		t.Errorf("InternalError message lacks the expression: %s", ie)
	}
}

func TestRunContextCompletesNormally(t *testing.T) {
	d := gen.Generate(gen.Params{Elements: 300, Fanout: 6})
	q := MustCompile("count(//e)")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := q.RunContext(ctx, RootNode(d), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.Run(RootNode(d), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.N != want.Value.N {
		t.Errorf("RunContext %v != Run %v", res.Value.N, want.Value.N)
	}
}

func TestGovernorStatsAdvance(t *testing.T) {
	// The governor must actually observe work: a run with generous limits
	// succeeds while the same run with tiny ones fails, for each budget.
	d := gen.Generate(gen.Params{Elements: 1000, Fanout: 6})
	expr := "//e[@id mod 2 = 0]/ancestor::e"
	for _, lim := range []Limits{
		{MaxTuples: 100_000_000},
		{MaxSteps: 100_000_000},
		{MaxBytes: 1 << 30},
	} {
		q, err := CompileWith(expr, Options{Limits: lim})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.Run(RootNode(d), nil); err != nil {
			t.Errorf("generous %+v tripped: %v", lim, err)
		}
	}
}

// TestTextPageFaultsFailValueQueries: the value predicates of Fig. 10 d10
// and d11 compare on the text pages in place. When those pages cannot be
// read — the medium fails, or a page's checksum does not match — the run
// must return the fault and no result, unwind every iterator, and leave no
// page pinned once the record cache is released.
func TestTextPageFaultsFailValueQueries(t *testing.T) {
	mem := gen.DBLP(gen.DBLPParams{Publications: 300, Seed: 1})
	dir := t.TempDir()
	path := filepath.Join(dir, "dblp.natix")
	if err := store.Write(path, mem); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Header fields (store/format.go): page size at byte 8, the first text
	// page at byte 24. The text segment runs to the end of the file.
	pageSize := int64(binary.LittleEndian.Uint32(img[8:]))
	textOff := int64(binary.LittleEndian.Uint32(img[24:])) * pageSize
	corrupt := append([]byte(nil), img...)
	for p := textOff; p < int64(len(corrupt)); p += pageSize {
		corrupt[p+pageSize-1] ^= 0xff // the page's checksum trailer
	}
	corruptPath := filepath.Join(dir, "corrupt.natix")
	if err := os.WriteFile(corruptPath, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("text medium failed")
	open := map[string]func() (*store.Doc, error){
		"clean": func() (*store.Doc, error) { return store.Open(path, store.Options{BufferPages: 8}) },
		"io": func() (*store.Doc, error) {
			d, _, err := store.OpenFaulty(path, store.Options{BufferPages: 8}, func(off int64, _ int) error {
				if off >= textOff {
					return boom
				}
				return nil
			})
			return d, err
		},
		"checksum": func() (*store.Doc, error) { return store.Open(corruptPath, store.Options{BufferPages: 8}) },
	}
	for _, spec := range []struct{ ID, XPath string }{ // Fig. 10 (internal/bench)
		{"d10", "/dblp/*[author = 'Guido Moerkotte']/@key"},
		{"d11", "/dblp/inproceedings[@key = 'conf/er/LockemannM91']/title"},
	} {
		for _, mode := range []string{"clean", "io", "checksum"} {
			d, err := open[mode]()
			if err != nil {
				t.Fatal(err)
			}
			res, err, lt := trackedRun(MustCompile(spec.XPath), context.Background(), RootNode(d), nil)
			switch {
			case mode == "clean":
				if err != nil || len(res.Value.Nodes) == 0 {
					t.Errorf("%s clean: err %v, result %v", spec.ID, err, res)
				}
			case res != nil:
				t.Errorf("%s %s: faulted run returned a result (%d nodes, err %v)", spec.ID, mode, len(res.Value.Nodes), err)
			case mode == "io" && !errors.Is(err, boom):
				t.Errorf("%s io: err = %v, want the injected fault", spec.ID, err)
			case mode == "checksum" && (err == nil || !strings.Contains(err.Error(), "checksum mismatch")):
				t.Errorf("%s checksum: err = %v, want a checksum mismatch", spec.ID, err)
			}
			lt.assertBalanced(t, spec.ID+" "+mode)
			d.ReleaseRecordCache()
			if n := d.PinnedPages(); n != 0 {
				t.Errorf("%s %s: %d pages still pinned", spec.ID, mode, n)
			}
			d.Close()
		}
	}
}
