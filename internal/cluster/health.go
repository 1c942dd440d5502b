package cluster

import (
	"context"
	"errors"
	"sync"
	"time"

	"natix/internal/client"
)

// probeLoop probes every shard of the current topology each ProbeInterval
// until Close.
func (c *Coordinator) probeLoop() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
		c.ProbeNow(ctx)
		cancel()
	}
}

// ProbeNow probes every shard of the current topology once, concurrently,
// and returns when the round completes. Tests call it directly for a
// deterministic topology view; the background loop calls it on its tick.
func (c *Coordinator) ProbeNow(ctx context.Context) {
	st := c.state.Load()
	var wg sync.WaitGroup
	for _, id := range st.order {
		wg.Add(1)
		go func(sh *shardState) {
			defer wg.Done()
			c.probeShard(ctx, sh)
		}(st.shards[id])
	}
	wg.Wait()
	c.updateHealthyGauge(st)
	mProbes.Inc()
}

// probeShard runs one probe round against one shard: endpoints are tried
// in preference order; the first that answers HTTP at all makes the round
// a success (readiness is recorded separately — a shard that is not ready
// still answers HTTP). A successful round also refreshes the shard's
// observed document catalog, which is what wildcard fan-out and observed
// placement route on.
func (c *Coordinator) probeShard(ctx context.Context, sh *shardState) {
	var lastErr error
	for i, pc := range sh.probes {
		_, err := pc.Ready(ctx)
		var ce *client.Error
		switch {
		case err == nil:
			sh.epIdx.Store(int32(i))
			c.noteProbeOK(sh, pc, ctx, true)
			return
		case errors.As(err, &ce):
			// The endpoint answered HTTP — reachable, but not ready
			// (draining). Routing keeps it: its in-flight work finishes,
			// and new queries get the structured 503 the clients retry.
			sh.epIdx.Store(int32(i))
			c.noteProbeOK(sh, pc, ctx, false)
			return
		default:
			lastErr = err
		}
	}
	c.noteProbeFail(sh, lastErr)
}

// noteProbeOK records a reachable probe round and refreshes the shard's
// document catalog. Hysteresis: an unhealthy shard needs healthyAfter
// consecutive reachable rounds before routing trusts it again.
func (c *Coordinator) noteProbeOK(sh *shardState, pc *client.Client, ctx context.Context, ready bool) {
	sh.ready.Store(ready)
	docs, derr := pc.Documents(ctx)
	sh.mu.Lock()
	sh.consecFail = 0
	sh.consecOK++
	sh.lastErr = ""
	sh.lastProbe = time.Now()
	promote := !sh.healthy.Load() && sh.consecOK >= healthyAfter
	if derr == nil {
		// Replace, not merge: a document dropped from the shard's catalog
		// must drop from the routing table too.
		m := make(map[string]uint64, len(docs))
		for _, d := range docs {
			m[d.Name] = d.Generation
		}
		sh.docs = m
	}
	sh.mu.Unlock()
	if promote {
		sh.healthy.Store(true)
	}
}

// noteProbeFail records an unreachable probe round. Hysteresis: a healthy
// shard survives unhealthyAfter-1 consecutive failures before routing
// gives up on it, so one dropped probe never evicts a live shard.
func (c *Coordinator) noteProbeFail(sh *shardState, err error) {
	sh.ready.Store(false)
	sh.mu.Lock()
	sh.consecOK = 0
	sh.consecFail++
	if err != nil {
		sh.lastErr = err.Error()
	}
	sh.lastProbe = time.Now()
	demote := sh.healthy.Load() && sh.consecFail >= unhealthyAfter
	sh.mu.Unlock()
	if demote {
		sh.healthy.Store(false)
	}
}

// healthy counts the shards the prober considers healthy.
func (st *clusterState) healthy() int {
	n := 0
	for _, id := range st.order {
		if st.shards[id].healthy.Load() {
			n++
		}
	}
	return n
}

// updateHealthyGauge publishes the healthy-shard count.
func (c *Coordinator) updateHealthyGauge(st *clusterState) {
	mShardsHealthy.Set(int64(st.healthy()))
}
