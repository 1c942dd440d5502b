package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"natix/internal/client"
	"natix/internal/server"
)

// The coordinator's additions to the shard error-code vocabulary.
const (
	// CodeShardUnreachable marks a shard the coordinator could not reach:
	// known-unhealthy in the routing table, or a transport failure that
	// survived the client's retries.
	CodeShardUnreachable = "shard_unreachable"
)

// errShardDown marks a document whose shard the routing table holds
// unhealthy — the coordinator fails it fast instead of burning a fan-out
// slot on a known-dead endpoint.
var errShardDown = errors.New("cluster: shard unhealthy")

// docOutcome is one dispatched document of a scatter: the sequence number
// is the document's index in global document order, and the merge emits
// strictly in sequence order, so the merged answer is stable no matter
// which shard replies first.
type docOutcome struct {
	seq     int
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
	firstErr *apiError
	// result is the globally ordered merged node-set, present only when
	// every per-document result is a node-set (scalar kinds do not
	// concatenate; PerDocument stays authoritative for those).
	result *server.QueryResult
	stats  server.QueryStats
}

// mergeOutcomes folds seq-ordered outcomes into one answer. Iterating the
// outcomes slice in index order IS the ordered merge: outcome i was tagged
// with sequence i at dispatch, so per-document results, failures, and the
// concatenated node-set all come out in global document order no matter
// which shard answered first.
func mergeOutcomes(outcomes []docOutcome) mergedScatter {
	var m mergedScatter
	allNodeSets := true
	var nodes []server.QueryNode
	count := 0
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
		nodes = append(nodes, r.Result.Nodes...)
		count += r.Result.Count
		truncated = truncated || r.Result.Truncated
	}
	if allNodeSets && len(m.perDoc) > 0 {
		m.result = &server.QueryResult{Kind: "node-set", Count: count, Nodes: nodes, Truncated: truncated}
	}
	return m
}

// envelopeFrom maps a shard-call failure onto the coordinator's error
// envelope, preserving the shard's own status/code when the failure was a
// decoded service error and attributing the failure to the shard.
func envelopeFrom(err error, doc, shard string) *apiError {
	var ce *client.Error
	if errors.As(err, &ce) {
		status := ce.Status
		if status == 0 {
			status = http.StatusBadGateway
		}
		e := &apiError{
			Status: status, Code: ce.Code,
			Message: fmt.Sprintf("shard %s: document %q: %s", shard, doc, ce.Message),
		}
		if ce.RetryAfter > 0 {
			e.RetryAfterMS = ce.RetryAfter.Milliseconds()
		}
		return e
	}
	if errors.Is(err, errShardDown) {
		return errf(http.StatusServiceUnavailable, CodeShardUnreachable,
			"shard %s unhealthy: document %q unavailable", shard, doc)
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return errf(http.StatusGatewayTimeout, server.CodeTimeout,
			"shard %s: document %q: %v", shard, doc, err)
	}
	// A transport failure the client's retries did not outlast.
	return errf(http.StatusBadGateway, CodeShardUnreachable,
		"shard %s: document %q: %v", shard, doc, err)
}

// shardDownErr is the single-document form of the unhealthy-shard verdict.
func shardDownErr(sh *shardState, doc string) *apiError {
	return errf(http.StatusServiceUnavailable, CodeShardUnreachable,
		"shard %s unhealthy: document %q unavailable", sh.id, doc)
}

// apiError mirrors the shard service's structured error envelope — the
// coordinator speaks the same wire contract, so every existing client
// (including internal/client) decodes coordinator failures unchanged.
type apiError struct {
	Status       int    `json:"-"`
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// defaultRetryAfterMS is the backpressure hint on 429/503 answers.
const defaultRetryAfterMS = 250

func errf(status int, code, format string, args ...any) *apiError {
	e := &apiError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		e.RetryAfterMS = defaultRetryAfterMS
	}
	return e
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, e *apiError) {
	if e.RetryAfterMS > 0 {
		secs := (e.RetryAfterMS + 999) / 1000
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	} else if e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, e.Status, map[string]*apiError{"error": e})
}
