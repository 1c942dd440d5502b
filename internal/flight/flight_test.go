package flight

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"natix/internal/httpapi"
)

// expired returns a context that has already ended.
func expired() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestGroupJoinOrLead: the first caller leads, later callers of the same
// key join the same flight, and other keys lead their own.
func TestGroupJoinOrLead(t *testing.T) {
	var g Group[string, int]
	a, leader := g.Join("k", time.Minute)
	if !leader {
		t.Fatal("first caller did not lead")
	}
	b, leader := g.Join("k", time.Minute)
	if leader || b != a {
		t.Fatal("second caller of the same key did not join the leader's flight")
	}
	if _, leader := g.Join("other", time.Minute); !leader {
		t.Fatal("a different key joined a foreign flight")
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
}

// TestGroupWaiterCancelVsLeader: a waiter whose deadline passes leaves
// without cancelling the execution; the remaining waiters get the outcome.
func TestGroupWaiterCancelVsLeader(t *testing.T) {
	var g Group[string, int]
	f, _ := g.Join("k", time.Minute)
	g.Join("k", time.Minute)
	if _, _, ok := f.Wait(expired()); ok {
		t.Fatal("expired waiter reported an outcome")
	}
	if f.Context().Err() != nil {
		t.Fatal("one waiter leaving cancelled the execution")
	}
	f.Finish(42, nil)
	if v, err, ok := f.Wait(context.Background()); !ok || err != nil || v != 42 {
		t.Fatalf("remaining waiter got %v %v %v, want 42", v, err, ok)
	}
	if g.Len() != 0 {
		t.Fatalf("Len = %d after the flight finished, want 0", g.Len())
	}
}

// TestGroupErrorFanOut: a leader failure reaches every waiter as the same
// typed envelope.
func TestGroupErrorFanOut(t *testing.T) {
	var g Group[string, int]
	const waiters = 8
	f, _ := g.Join("k", time.Minute)
	for i := 1; i < waiters; i++ {
		g.Join("k", time.Minute)
	}
	boom := httpapi.Errf(http.StatusBadRequest, httpapi.CodeParseError, "boom")
	var wg sync.WaitGroup
	errs := make([]*httpapi.Error, waiters)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i], _ = f.Wait(context.Background())
		}()
	}
	f.Finish(0, boom)
	wg.Wait()
	for i, err := range errs {
		if err != boom {
			t.Fatalf("waiter %d got %v, want the leader's envelope", i, err)
		}
	}
}

// TestGroupLastLeaveCancels: the execution context survives every waiter
// but the last; the last departure cancels it and unregisters the flight,
// so the next caller leads a fresh execution rather than joining a
// cancelled one.
func TestGroupLastLeaveCancels(t *testing.T) {
	var g Group[string, int]
	f, _ := g.Join("k", time.Minute)
	g.Join("k", time.Minute)
	f.Wait(expired())
	if f.Context().Err() != nil {
		t.Fatal("cancelled with a waiter still aboard")
	}
	f.Wait(expired())
	if f.Context().Err() == nil {
		t.Fatal("last waiter left and the execution still runs")
	}
	next, leader := g.Join("k", time.Minute)
	if !leader || next == f {
		t.Fatal("a caller after the last departure joined the cancelled flight")
	}
	// The abandoned leader finishing late must not unregister its successor.
	f.Finish(0, nil)
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (the successor)", g.Len())
	}
	next.Finish(1, nil)
	next.Wait(context.Background())
	if g.Len() != 0 {
		t.Fatalf("Len = %d, want 0", g.Len())
	}
}

// TestGroupBoundExpires: the execution context ends at the group bound
// even while waiters remain.
func TestGroupBoundExpires(t *testing.T) {
	var g Group[string, int]
	f, _ := g.Join("k", 10*time.Millisecond)
	select {
	case <-f.Context().Done():
	case <-time.After(5 * time.Second):
		t.Fatal("execution context outlived its bound")
	}
}

// TestGroupNoMissedResult: racing joiners against completion, every joiner
// either shares the finished flight's outcome or leads a fresh flight — a
// key found absent never hides an outcome the caller should have shared,
// and the registry is empty once every flight is done.
func TestGroupNoMissedResult(t *testing.T) {
	var g Group[int, int]
	const rounds, joiners = 200, 8
	for r := 0; r < rounds; r++ {
		f, _ := g.Join(r%3, time.Minute)
		var wg sync.WaitGroup
		for i := 0; i < joiners; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				j, leader := g.Join(r%3, time.Minute)
				if leader {
					j.Finish(r, nil)
				}
				if v, err, ok := j.Wait(context.Background()); !ok || err != nil || v != r {
					t.Errorf("round %d: joiner got %v %v %v", r, v, err, ok)
				}
			}()
		}
		f.Finish(r, nil)
		f.Wait(context.Background())
		wg.Wait()
	}
	if g.Len() != 0 {
		t.Fatalf("Len = %d after every flight finished, want 0", g.Len())
	}
}
