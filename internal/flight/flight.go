// Package flight is the serving tier's singleflight: concurrent identical
// requests coalesce into one execution whose outcome fans out to every
// waiter. The serving front (internal/server) joins it for both tiers, keyed
// on the canonical query, its options and the tier's scope: the document
// and its generation on a shard; the document expression, the topology
// generation and allow_partial on the coordinator.
//
// The leader executes on a context detached from every HTTP request and
// bounded only by the tier's maximum timeout. A waiter refcount keeps it
// alive: each waiter, the leader's own client included, leaves at its own
// deadline, and the last departure cancels the execution and unregisters
// the flight, so a later arrival leads a fresh execution instead of joining
// a cancelled one. No waiter ever inherits another's deadline. A leader
// failure — admission rejection, compile error, store fault, shard error —
// fans the same typed envelope out to every waiter still aboard.
package flight

import (
	"context"
	"sync"
	"time"

	"natix/internal/httpapi"
)

// Group is a registry of in-progress flights keyed by K; the zero value is
// ready to use.
type Group[K comparable, V any] struct {
	mu      sync.Mutex
	flights map[K]*Flight[K, V]
}

// Flight is one in-progress coalesced execution.
type Flight[K comparable, V any] struct {
	g      *Group[K, V]
	key    K
	ctx    context.Context
	cancel context.CancelFunc
	// waiters counts everyone awaiting the outcome, the leader included;
	// guarded by g.mu.
	waiters int

	done chan struct{}
	// val/err are set exactly once, before done closes; read-only after.
	val V
	err *httpapi.Error
}

// Join returns the flight for k and whether the caller leads it. A leader
// must execute on Context and publish through Finish exactly once; a joiner
// only waits. Either way the caller holds one waiter reference, released by
// Wait. A new flight's execution context expires after bound.
func (g *Group[K, V]) Join(k K, bound time.Duration) (*Flight[K, V], bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.flights[k]; ok {
		f.waiters++
		return f, false
	}
	if g.flights == nil {
		g.flights = map[K]*Flight[K, V]{}
	}
	f := &Flight[K, V]{g: g, key: k, waiters: 1, done: make(chan struct{})}
	f.ctx, f.cancel = context.WithTimeout(context.Background(), bound)
	g.flights[k] = f
	return f, true
}

// Len reports how many flights are in progress.
func (g *Group[K, V]) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.flights)
}

// unregister removes f if it is still the flight registered under its key.
// Called with g.mu held.
func (f *Flight[K, V]) unregister() {
	if f.g.flights[f.key] == f {
		delete(f.g.flights, f.key)
	}
}

// Context is the leader's execution context: detached from every request,
// cancelled by the last waiter leaving or by Finish.
func (f *Flight[K, V]) Context() context.Context { return f.ctx }

// Finish publishes the outcome to every waiter and releases the execution
// context. Unregistering precedes completion, so a request that finds the
// key absent can never miss an outcome it should have shared.
func (f *Flight[K, V]) Finish(val V, err *httpapi.Error) {
	f.g.mu.Lock()
	f.unregister()
	f.g.mu.Unlock()
	f.val, f.err = val, err
	close(f.done)
	f.cancel()
}

// Wait blocks until the flight finishes or ctx ends, then leaves the
// flight. ok reports a finished flight, whose outcome is val or err; false
// means ctx ended first.
func (f *Flight[K, V]) Wait(ctx context.Context) (val V, err *httpapi.Error, ok bool) {
	select {
	case <-f.done:
		ok = true
		val, err = f.val, f.err
	case <-ctx.Done():
	}
	f.leave()
	return val, err, ok
}

// leave drops one waiter; the last departure cancels the execution (nobody
// wants the outcome any more) and unregisters the flight.
func (f *Flight[K, V]) leave() {
	f.g.mu.Lock()
	defer f.g.mu.Unlock()
	if f.waiters--; f.waiters == 0 {
		f.unregister()
		f.cancel()
	}
}
