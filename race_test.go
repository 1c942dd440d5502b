package natix

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"natix/internal/store"
)

// raceDoc has both id attributes (exercising the document's ID map) and
// root-anchored name chains for path-index plans (the document's lazily
// built path index).
func raceDoc(t *testing.T) Node {
	t.Helper()
	var sb []byte
	sb = append(sb, "<site><people>"...)
	for i := 0; i < 50; i++ {
		sb = append(sb, fmt.Sprintf(`<person id="p%d"><age>%d</age></person>`, i, 10+i)...)
	}
	sb = append(sb, "</people></site>"...)
	d, err := ParseDocumentString(string(sb))
	if err != nil {
		t.Fatal(err)
	}
	return RootNode(d)
}

// TestConcurrentQuerySharing runs the same compiled queries from 8
// goroutines against one document. The document's lazily built ID map and
// path index are both cold at the start, so every goroutine races to build
// them — the access-path decision resolves the index through pathindex.For
// before it prices the chain, so even this small document builds one; run
// under -race this pins down the sync.Once-per-document construction of
// both.
func TestConcurrentQuerySharing(t *testing.T) {
	root := raceDoc(t)
	queries := []*Query{
		MustCompileWith("//person[age > 30]", Options{Mode: Improved, EnablePathIndex: true}),
		MustCompileWith("//age", Options{Mode: Improved, EnablePathIndex: true}),
		MustCompileWith("id('p7 p13')/age", Options{Mode: Improved}),
	}
	const goroutines = 8
	const rounds = 16

	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(queries))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, q := range queries {
					res, err := q.Run(root, nil)
					if err != nil {
						errs <- err
						return
					}
					_ = res.Value.String()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Sanity: results are still correct after the concurrent phase.
	res, err := queries[2].Run(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nodes, ok := res.SortedNodeSet(); !ok || len(nodes) != 2 {
		t.Errorf("id lookup after concurrent runs: %v, %v", nodes, ok)
	}
}

// TestConcurrentSharedPrepared runs ONE Prepared plan from 8 goroutines on
// both backends at once: the in-memory document is shared by every
// goroutine, while each goroutine owns a private store handle over the same
// bytes (a *store.Doc is single-threaded — the same discipline the catalog
// enforces with its handle pool). Run under -race this pins the concurrency
// contract documented on Prepared: all per-run state (machine, registers,
// memo tables, iterators) is allocated per Run, never on the plan.
func TestConcurrentSharedPrepared(t *testing.T) {
	var sb []byte
	sb = append(sb, "<site><people>"...)
	for i := 0; i < 60; i++ {
		sb = append(sb, fmt.Sprintf(`<person id="p%d"><age>%d</age></person>`, i, 10+i)...)
	}
	sb = append(sb, "</people></site>"...)
	mem, err := ParseDocumentString(string(sb))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.WriteTo(&buf, mem); err != nil {
		t.Fatal(err)
	}

	// One shared plan per shape: a node-set with a memoized predicate, a
	// positional plan, and an aggregate.
	plans := []*Prepared{
		MustCompile("//person[age > count(//person) div 2]"),
		MustCompile("/site/people/person[position() = last()]/@id"),
		MustCompile("sum(//age)"),
	}
	want := make([]string, len(plans))
	for i, p := range plans {
		res, err := p.Run(RootNode(mem), nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Value.String()
	}

	const goroutines = 8
	const rounds = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sd, err := store.OpenReaderAt(bytes.NewReader(buf.Bytes()), store.Options{BufferPages: 8})
			if err != nil {
				errs <- err
				return
			}
			defer sd.Close()
			roots := []Node{RootNode(mem), RootNode(sd)}
			for r := 0; r < rounds; r++ {
				for i, p := range plans {
					res, err := p.Run(roots[(g+r)%2], nil)
					if err != nil {
						errs <- fmt.Errorf("plan %d: %w", i, err)
						return
					}
					if got := res.Value.String(); got != want[i] {
						errs <- fmt.Errorf("plan %d: got %q want %q", i, got, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentSharedPreparedBatched is the batched-protocol twin of
// TestConcurrentSharedPrepared: one Prepared per query shape, 8 goroutines,
// both backends, with a deliberately tiny batch size so every run cycles
// the per-Exec buffer and stepper free lists many times. Run under -race
// this pins the recycling down: the free lists hang off the per-run Exec, so
// concurrent Runs of one plan must never share a buffer.
func TestConcurrentSharedPreparedBatched(t *testing.T) {
	var sb []byte
	sb = append(sb, "<site><people>"...)
	for i := 0; i < 60; i++ {
		sb = append(sb, fmt.Sprintf(`<person id="p%d"><age>%d</age></person>`, i, 10+i)...)
	}
	sb = append(sb, "</people></site>"...)
	mem, err := ParseDocumentString(string(sb))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.WriteTo(&buf, mem); err != nil {
		t.Fatal(err)
	}

	// Node-set plans whose hot chains mark batch-capable: a bare step
	// chain, a filtered chain (exists predicate batches via the Select
	// kernel), and a duplicate-producing descendant walk.
	plans := []*Prepared{
		setBatchSize(MustCompile("/site/people/person/age"), 8),
		setBatchSize(MustCompile("//person[age]/@id"), 8),
		setBatchSize(MustCompile("//person/descendant-or-self::*"), 8),
	}
	want := make([]string, len(plans))
	for i, p := range plans {
		res, err := p.Run(RootNode(mem), nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Value.String()
	}

	const goroutines = 8
	const rounds = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sd, err := store.OpenReaderAt(bytes.NewReader(buf.Bytes()), store.Options{BufferPages: 8})
			if err != nil {
				errs <- err
				return
			}
			defer sd.Close()
			roots := []Node{RootNode(mem), RootNode(sd)}
			for r := 0; r < rounds; r++ {
				for i, p := range plans {
					res, err := p.Run(roots[(g+r)%2], nil)
					if err != nil {
						errs <- fmt.Errorf("plan %d: %w", i, err)
						return
					}
					if got := res.Value.String(); got != want[i] {
						errs <- fmt.Errorf("plan %d: got %q want %q", i, got, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentDistinctDocuments resolves the path index of several
// distinct documents at once: each document's once-guarded build overlaps
// the others' across goroutines.
func TestConcurrentDistinctDocuments(t *testing.T) {
	q := MustCompileWith("//person", Options{Mode: Improved, EnablePathIndex: true})
	const goroutines = 8
	docs := make([]Node, goroutines)
	for i := range docs {
		d, err := ParseDocumentString(fmt.Sprintf(`<r><person n="%d"/><person/></r>`, i))
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = RootNode(d)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(root Node) {
			defer wg.Done()
			for r := 0; r < 16; r++ {
				res, err := q.Run(root, nil)
				if err != nil || len(res.Value.Nodes) != 2 {
					t.Errorf("run: %v %v", res, err)
					return
				}
			}
		}(docs[g])
	}
	wg.Wait()
	// The race above is on the index builds only if the plan resolves the index.
	a, err := q.ExplainAnalyze(t.Context(), docs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.Tree, "=> access path:") {
		t.Errorf("no access-path decision, so no index lookup:\n%s", a.Tree)
	}
}
