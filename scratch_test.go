// Run-scratch hardening: every run takes its batch buffers, steppers and
// node columns from a process-wide pool and puts them back when it ends.
// These tests pin what that must never cost: a pooled scratch keeping a
// dropped document alive, a later run writing into an earlier run's result,
// and result growth garbage coming back.
package natix_test

import (
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"natix"
	"natix/internal/bench"
	"natix/internal/dom"
	"natix/internal/gen"
)

// TestScratchPinsNoDocument: after a default-batch run, the pooled scratch
// holds no reference to the document it ran on. The pool's victim cache
// survives one GC, so an uncleared buffer, column or stepper would keep the
// document reachable through the single GC below and its finalizer would
// not run.
func TestScratchPinsNoDocument(t *testing.T) {
	q := natix.MustCompile("/child::xdoc/descendant::*/ancestor::*/descendant::*/@id")
	finalized := make(chan struct{})
	func() {
		d := gen.Generate(gen.Params{Elements: 800, Fanout: 6})
		runtime.SetFinalizer(d, func(*dom.MemDoc) { close(finalized) })
		res, err := q.Run(natix.RootNode(d), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Value.Nodes) == 0 {
			t.Fatal("empty result: the run gathered nothing")
		}
	}()
	runtime.GC()
	select {
	case <-finalized:
	case <-time.After(5 * time.Second):
		t.Fatal("document still reachable after one GC: the run scratch pins it")
	}
}

// TestScratchAliasesNoResult: a result shares no memory with the scratch it
// was gathered in. Result A is kept while four goroutines run about a
// thousand other queries on other documents, recycling every pooled buffer
// and column many times over; A must still equal the copy saved when it
// was returned.
func TestScratchAliasesNoResult(t *testing.T) {
	exprs := []string{
		"/child::xdoc/descendant::*/ancestor::*/descendant::*/@id",
		"//e[@id mod 3 = 0]/ancestor::*",
		"//e/descendant::*",
		"/child::xdoc/child::*/parent::*/descendant::*/@id",
	}
	qs := make([]*natix.Query, len(exprs))
	for i, e := range exprs {
		qs[i] = natix.MustCompile(e)
	}
	resA, err := qs[0].Run(natix.RootNode(gen.Generate(gen.Params{Elements: 600, Fanout: 6})), nil)
	if err != nil {
		t.Fatal(err)
	}
	saved := slices.Clone(resA.Value.Nodes)

	const goroutines, rounds = 4, 250
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		d := gen.Generate(gen.Params{Elements: 300 + 100*g, Fanout: 4 + g})
		wg.Add(1)
		go func(root natix.Node) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := qs[r%len(qs)].Run(root, nil); err != nil {
					errs <- err
					return
				}
			}
		}(natix.RootNode(d))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !slices.Equal(resA.Value.Nodes, saved) {
		t.Fatal("result A changed while other runs recycled the pool")
	}
}

// TestRunGrowthGarbage: a warm run of Fig. 5 q1 on the 10 000-element
// document allocates no more than 1.25 times its result's bytes plus
// 16 KiB. The result is gathered in a pooled column and copied out once at
// its exact length; growing it by append would allocate about twice the
// result again. The collector is off so the pool keeps its scratch between
// runs, and the best of five runs is taken, because a run on another P may
// miss the scratch the previous run left in its P's private slot.
func TestRunGrowthGarbage(t *testing.T) {
	d := gen.Generate(gen.Params{Elements: 10000, Fanout: bench.FanoutFor(10000)})
	q := natix.MustCompile(bench.Fig5[0].XPath)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func() (allocated uint64, results int) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := q.Run(natix.RootNode(d), nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, len(res.Value.Nodes)
	}
	run() // warm: fills the pool
	best, results := run()
	for i := 0; i < 4; i++ {
		if a, _ := run(); a < best {
			best = a
		}
	}
	resultBytes := uint64(results) * uint64(unsafe.Sizeof(natix.Node{}))
	limit := resultBytes + resultBytes/4 + 16<<10
	if best > limit {
		t.Fatalf("warm q1 run allocated %d B for a %d B result (%d nodes); limit %d B", best, resultBytes, results, limit)
	}
	t.Logf("warm q1 run: %d B allocated, result %d B (%d nodes)", best, resultBytes, results)
}
