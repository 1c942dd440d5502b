package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"natix/internal/client"
	"natix/internal/httpapi"
	"natix/internal/server"
)

// errShardDown marks a document whose shard the routing table holds
// unhealthy — the coordinator fails it fast instead of burning a fan-out
// slot on a known-dead endpoint.
var errShardDown = errors.New("cluster: shard unhealthy")

// docOutcome is one dispatched document of a scatter, stored at the
// document's index in global document order; the merge emits strictly in
// that order, so the merged answer is stable no matter which shard replies
// first.
type docOutcome struct {
	doc     string
	shard   *shardState
	resp    *server.QueryResponse
	err     error
	elapsed time.Duration
}

// mergedScatter is the ordered merge of a scatter's outcomes.
type mergedScatter struct {
	perDoc []DocResult
	failed []DocFailure
	// firstErr is the envelope of the failure earliest in global document
	// order — what a non-partial query surfaces.
	firstErr *httpapi.Error
	// result is the globally ordered merged node-set, present only when
	// every per-document result is a node-set (scalar kinds do not
	// concatenate; PerDocument stays authoritative for those). It holds
	// the only copy of the nodes.
	result *server.QueryResult
	stats  server.QueryStats
}

// mergeOutcomes folds ordered outcomes into one answer. Iterating the
// outcomes slice in index order IS the ordered merge: outcome i is the
// document at position i of global document order, so per-document
// results, failures, and the concatenated node-set all come out in that
// order no matter which shard answered first. When the merged node-set is
// emitted, it carries each node once: the per-document entries keep their
// count and truncation but give their nodes up to it.
func mergeOutcomes(outcomes []docOutcome) mergedScatter {
	var m mergedScatter
	allNodeSets := true
	total, count := 0, 0
	truncated := false
	for i := range outcomes {
		o := &outcomes[i]
		if o.err != nil {
			env := envelopeFrom(o.err, o.doc, o.shard.id)
			if m.firstErr == nil {
				m.firstErr = env
			}
			m.failed = append(m.failed, DocFailure{
				Document: o.doc, Shard: o.shard.id, Code: env.Code, Message: env.Message,
			})
			continue
		}
		r := o.resp
		m.perDoc = append(m.perDoc, DocResult{
			Document: r.Document, Shard: o.shard.id, Generation: r.Generation,
			Cached: r.Cached, Result: r.Result, Stats: r.Stats,
		})
		m.stats.AxisSteps += r.Stats.AxisSteps
		m.stats.Tuples += r.Stats.Tuples
		m.stats.DupDropped += r.Stats.DupDropped
		m.stats.MemoHits += r.Stats.MemoHits
		m.stats.MemoMisses += r.Stats.MemoMisses
		if r.Result.Kind != "node-set" {
			allNodeSets = false
			continue
		}
		total += len(r.Result.Nodes)
		count += r.Result.Count
		truncated = truncated || r.Result.Truncated
	}
	if !allNodeSets || len(m.perDoc) == 0 {
		return m
	}
	var nodes []server.QueryNode
	if total > 0 {
		nodes = make([]server.QueryNode, 0, total)
	}
	for i := range m.perDoc {
		res := &m.perDoc[i].Result
		nodes = append(nodes, res.Nodes...)
		res.Nodes = nil
	}
	m.result = &server.QueryResult{Kind: "node-set", Count: count, Nodes: nodes, Truncated: truncated}
	return m
}

// envelopeFrom maps a shard-call failure onto the coordinator's error
// envelope, preserving the shard's own status/code when the failure was a
// decoded service error and attributing the failure to the shard.
func envelopeFrom(err error, doc, shard string) *httpapi.Error {
	var ce *client.Error
	if errors.As(err, &ce) {
		status := ce.Status
		if status == 0 {
			status = http.StatusBadGateway
		}
		e := &httpapi.Error{
			Status: status, Code: ce.Code,
			Message: fmt.Sprintf("shard %s: document %q: %s", shard, doc, ce.Message),
		}
		if ce.RetryAfter > 0 {
			e.RetryAfterMS = ce.RetryAfter.Milliseconds()
		}
		return e
	}
	if errors.Is(err, errShardDown) {
		return httpapi.Errf(http.StatusServiceUnavailable, httpapi.CodeShardUnreachable,
			"shard %s unhealthy: document %q unavailable", shard, doc)
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return httpapi.Errf(http.StatusGatewayTimeout, httpapi.CodeTimeout,
			"shard %s: document %q: %v", shard, doc, err)
	}
	// A transport failure the client's retries did not outlast.
	return httpapi.Errf(http.StatusBadGateway, httpapi.CodeShardUnreachable,
		"shard %s: document %q: %v", shard, doc, err)
}
