#!/bin/sh
# CI gate: vet, static analysis, build, the full test suite under the race
# detector, and the cross-mode differential harness on its small fixed
# corpus. staticcheck and govulncheck run when installed and are skipped
# (with a notice) otherwise, so the gate works on minimal toolchains.
# Run from the repository root:  ./scripts/ci.sh
set -eux

cd "$(dirname "$0")/.."

go vet ./...

if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "ci: staticcheck not installed, skipping" >&2
fi

if command -v govulncheck >/dev/null 2>&1; then
    govulncheck ./...
else
    echo "ci: govulncheck not installed, skipping" >&2
fi

go build ./...
go test -race ./...

# The benchmark is its own module (replace natix => ../), so the steps above
# never compile it: vet and test it here, or an engine API change breaks the
# yardstick unnoticed. ~5 s, all five workloads on small inputs.
(cd benchmark && go vet . && go test .)

# Fault-tolerance gate: the re-exec crash harness (>= 20 SIGKILLs against the
# commit pipeline and the atomic reload rename) plus the 64-client chaos soak.
# Both already run inside the full -race suite above; this step re-runs them
# under a pinned time budget so a recovery hang or soak deadlock fails the
# gate quickly instead of eating the whole CI slot.
go test -race -run 'TestCrashRecovery|TestChaosSoak' -timeout 5m -count=1 ./internal/chaos/

# Differential harness: every corpus query under every translation
# configuration x document backend, against the reference interpreter.
# -short selects the small fixed corpus prefix; the full matrix runs in the
# regular (non-short) go test above as well.
go test -short -run TestMatrix ./internal/difftest/

# Perf guard: the batched execution protocol (the default) must not be
# slower than the scalar protocol on the Fig. 5 hot chains. Best-of-5
# timing per query; the test is opt-in via NATIX_PERF_GUARD because it is
# timing-sensitive.
NATIX_PERF_GUARD=1 go test -run TestBatchSpeedupGuard -timeout 20m .

# Shared-plan gate: goroutines sharing Prepared plans must stay race-free on
# the batched protocol, and every run must return each free-list buffer and
# stepper it took, however it ends.
go test -race -run 'TestConcurrentSharedPreparedBatched|TestPoolBalanceBatched' -count=1 .

# Index guard: the path-index access path must hit at least 5x over
# navigation on the selective //name probes of the skewed corpus at 8000
# elements over the page-backed store (O(subtree) vs O(matches); the
# committed baseline is BENCH_PR8.json). Self-skips on constrained machines,
# where the index-enabled difftest twins above still prove correctness.
NATIX_PERF_GUARD=1 go test -run TestIndexSpeedupGuard -timeout 20m .

# Adaptive serving guard: under a 64-client Zipf workload of duplicate-heavy
# queries, coalescing identical in-flight executions must cut p99 latency by
# at least 2x against the same workload with singleflight off, and every
# request must either lead its flight or join one (duplicates execute once).
# Writes BENCH_PR10.json; self-skips below 4 cores, where the singleflight
# edge-case tests in the -race suite above still prove correctness.
NATIX_PERF_GUARD=1 go test -run TestAdaptiveServeGuard -timeout 20m -count=1 .

# Plan-cache guard: a cache hit must return the identical compiled artifact
# (pointer identity — no parse/translate/codegen on the hit path), and the
# benchmark pair quantifies the cold/hot gap.
go test -run 'TestPutRefreshAndGetOrCompile|TestLRUEvictionOrder' ./internal/plancache/
go test -run xxx -bench 'BenchmarkColdCompile|BenchmarkCacheHit' -benchtime 100x ./internal/plancache/

# natix-serve smoke test: serve a generated document on an ephemeral port,
# run a query twice (second must be a cache hit), check /healthz and
# /metrics, then drain cleanly via SIGTERM.
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
cat > "$SMOKE_DIR/doc.xml" <<'XML'
<lib><book><title>Algebra</title></book><book><title>XPath</title></book></lib>
XML
go build -o "$SMOKE_DIR/natix-serve" ./cmd/natix-serve
"$SMOKE_DIR/natix-serve" -addr 127.0.0.1:0 books="$SMOKE_DIR/doc.xml" \
    > "$SMOKE_DIR/serve.out" 2> "$SMOKE_DIR/serve.err" &
SERVE_PID=$!
for i in $(seq 1 50); do
    grep -q 'listening on' "$SMOKE_DIR/serve.out" && break
    sleep 0.1
done
SERVE_URL=$(sed -n 's/^natix-serve: listening on //p' "$SMOKE_DIR/serve.out")
[ -n "$SERVE_URL" ]
BODY='{"query":"//book/title","document":"books"}'
curl -sf "$SERVE_URL/query" -d "$BODY" | grep -q '"count":2'
curl -sf "$SERVE_URL/query" -d "$BODY" | grep -q '"cached":true'
curl -sf "$SERVE_URL/healthz" | grep -q '"status":"ok"'
curl -sf "$SERVE_URL/metrics" | grep -q '^natix_plancache_hits_total 1'
curl -sf "$SERVE_URL/documents" | grep -q '"name":"books"'
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
grep -q 'drained' "$SMOKE_DIR/serve.err"

# Cluster gate, part 1 (in-process): the conformance corpus through a
# 4-shard coordinator must be byte-identical to single-node answers, and 64
# concurrent clients mixing wildcard/list/single queries against racing
# probes and a topology re-install must always see global document order.
go test -race -run 'TestCoordinatorConformanceParity|TestCoordinatorConcurrentOrdering|TestReloadGenerationRetirementRace' -timeout 5m -count=1 ./internal/cluster/ ./internal/server/

# Cluster gate, part 2 (process-level): spawn 4 shard processes and a
# coordinator on loopback ports, lay an 8-document corpus across the
# shards, and check through real HTTP what the in-process tests checked in
# miniature: single-document routing, the globally ordered wildcard merge
# diffed against single-node answers, the explicit partial envelope when a
# shard is killed, and a clean coordinator drain.
CLUSTER_PIDS=""
trap 'kill $CLUSTER_PIDS 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
DOC_I=0
SHARD_URLS=""
for SHARD in 0 1 2 3; do
    DOCS=""
    for N in $(seq 1 2); do
        NAME=$(printf 'doc%02d' "$DOC_I")
        printf '<d><v>%s</v></d>' "$NAME" > "$SMOKE_DIR/$NAME.xml"
        DOCS="$DOCS $NAME=$SMOKE_DIR/$NAME.xml"
        DOC_I=$((DOC_I + 1))
    done
    "$SMOKE_DIR/natix-serve" -addr 127.0.0.1:0 $DOCS \
        > "$SMOKE_DIR/shard$SHARD.out" 2> "$SMOKE_DIR/shard$SHARD.err" &
    CLUSTER_PIDS="$CLUSTER_PIDS $!"
done
for SHARD in 0 1 2 3; do
    for i in $(seq 1 50); do
        grep -q 'listening on' "$SMOKE_DIR/shard$SHARD.out" && break
        sleep 0.1
    done
    URL=$(sed -n 's/^natix-serve: listening on //p' "$SMOKE_DIR/shard$SHARD.out")
    [ -n "$URL" ]
    SHARD_URLS="$SHARD_URLS $URL"
done
# One more instance serving the whole corpus: the single-node reference.
ALL_DOCS=""
DOC_I=0
while [ "$DOC_I" -lt 8 ]; do
    NAME=$(printf 'doc%02d' "$DOC_I")
    ALL_DOCS="$ALL_DOCS $NAME=$SMOKE_DIR/$NAME.xml"
    DOC_I=$((DOC_I + 1))
done
"$SMOKE_DIR/natix-serve" -addr 127.0.0.1:0 $ALL_DOCS \
    > "$SMOKE_DIR/single.out" 2> "$SMOKE_DIR/single.err" &
CLUSTER_PIDS="$CLUSTER_PIDS $!"
for i in $(seq 1 50); do
    grep -q 'listening on' "$SMOKE_DIR/single.out" && break
    sleep 0.1
done
SINGLE_URL=$(sed -n 's/^natix-serve: listening on //p' "$SMOKE_DIR/single.out")
[ -n "$SINGLE_URL" ]
{
    printf '{"generation":1,"shards":['
    SEP=""
    ID=0
    for URL in $SHARD_URLS; do
        printf '%s{"id":"s%d","endpoints":["%s"]}' "$SEP" "$ID" "$URL"
        SEP=","
        ID=$((ID + 1))
    done
    printf ']}\n'
} > "$SMOKE_DIR/cluster.json"
"$SMOKE_DIR/natix-serve" -coordinator -topology "$SMOKE_DIR/cluster.json" \
    -addr 127.0.0.1:0 -probe-interval 100ms \
    > "$SMOKE_DIR/coord.out" 2> "$SMOKE_DIR/coord.err" &
COORD_PID=$!
CLUSTER_PIDS="$CLUSTER_PIDS $COORD_PID"
for i in $(seq 1 50); do
    grep -q 'listening on' "$SMOKE_DIR/coord.out" && break
    sleep 0.1
done
COORD_URL=$(sed -n 's/^natix-serve: listening on //p' "$SMOKE_DIR/coord.out")
[ -n "$COORD_URL" ]
# Let the prober discover every shard's catalog before routing on it.
for i in $(seq 1 50); do
    curl -sf "$COORD_URL/documents" | grep -q '"name":"doc07"' && break
    sleep 0.1
done
curl -sf "$COORD_URL/buildinfo" | grep -q '"role":"coordinator"'
curl -sf "$COORD_URL/healthz" | grep -q '"status":"ok"'
# Single-document routing through the coordinator answers the shard's data.
curl -sf "$COORD_URL/query" -d '{"query":"string(//v)","document":"doc05"}' | grep -q '"string":"doc05"'
# Wildcard merge vs single-node: the coordinator's merged node list must be
# exactly the concatenation of per-document single-node answers in sorted
# document order.
EXPECT=""
DOC_I=0
while [ "$DOC_I" -lt 8 ]; do
    NAME=$(printf 'doc%02d' "$DOC_I")
    NODES=$(curl -sf "$SINGLE_URL/query" -d "{\"query\":\"//v\",\"document\":\"$NAME\"}" \
        | sed -n 's/.*"nodes":\[\([^]]*\)\].*/\1/p')
    [ -n "$NODES" ]
    EXPECT="$EXPECT,$NODES"
    DOC_I=$((DOC_I + 1))
done
EXPECT="[${EXPECT#,}]"
curl -sf "$COORD_URL/query" -d '{"query":"//v","document":"*"}' > "$SMOKE_DIR/wild.json"
grep -qF "\"nodes\":$EXPECT" "$SMOKE_DIR/wild.json"
grep -q '"count":8' "$SMOKE_DIR/wild.json"
# Kill one shard; after the prober's hysteresis the wildcard still answers
# with an explicit partial envelope naming the lost documents, and the
# non-partial form fails with the shard_unreachable code.
LAST_SHARD_PID=$(echo "$CLUSTER_PIDS" | awk '{print $4}')
kill -KILL "$LAST_SHARD_PID"
sleep 1
curl -sf "$COORD_URL/query" -d '{"query":"//v","document":"*","allow_partial":true}' > "$SMOKE_DIR/partial.json"
grep -q '"partial":true' "$SMOKE_DIR/partial.json"
grep -q '"code":"shard_unreachable"' "$SMOKE_DIR/partial.json"
grep -q '"value":"doc05"' "$SMOKE_DIR/partial.json"
curl -s "$COORD_URL/query" -d '{"query":"//v","document":"*"}' | grep -q '"code":"shard_unreachable"'
curl -sf "$COORD_URL/healthz" | grep -q '"status":"degraded"'
curl -sf "$COORD_URL/topology" | grep -q '"healthy":false'
kill -TERM "$COORD_PID"
wait "$COORD_PID"
grep -q 'drained' "$SMOKE_DIR/coord.err"
