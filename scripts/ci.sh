#!/bin/sh
# CI gate: vet, static analysis, build, the full test suite under the race
# detector, and the cross-mode differential harness on its small fixed
# corpus. staticcheck and govulncheck run when installed and are skipped
# (with a notice) otherwise, so the gate works on minimal toolchains.
# Run from the repository root:  ./scripts/ci.sh
set -eux

cd "$(dirname "$0")/.."

go vet ./...

# The tree stays gofmt-clean.
test -z "$(gofmt -l $(git ls-files '*.go'))"

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
# commit pipeline and the atomic reload rename) plus the 64-client chaos soak,
# and the in-place string comparison on the store: its property test against
# the materialized string-value, and Fig. 10's value queries on failing and
# corrupt text pages (fault returned, never a result, no page left pinned).
# So does the path index's promise: a version-1 index blob is still read,
# and a corrupt or out-of-order one degrades to a rebuild, never to an
# unopenable store or a wrong answer.
# All already run inside the full -race suite above; this step re-runs them
# under a pinned time budget so a recovery hang or soak deadlock fails the
# gate quickly instead of eating the whole CI slot.
go test -race -run 'TestCrashRecovery|TestChaosSoak|TestStringValueEqualsInPlace|TestTextPageFaultsFailValueQueries|TestDecodeRejectsCorruption|TestDecodeReadsVersion1|TestPathIndexOldFormatsRebuild|TestPathIndexFaultedDocYieldsNil' -timeout 5m -count=1 ./internal/chaos/ ./internal/store/ ./internal/pathindex/ .

# Differential harness: every corpus query under every translation
# configuration x document backend, against the reference interpreter.
# -short selects the small fixed corpus prefix; the full matrix runs in the
# regular (non-short) go test above as well. Default plans drop every Pi^D
# and Sort the sequence analysis proves redundant, so this fast gate also
# names the tests that would see an unsound claim: relative chains from
# every element context, and the hand-checked conformance cases. Positional
# windows ride along: every window shape on every axis against the
# interpreter, in both modes, on a MemDoc and a small-page store image, with
# and without the path index, and the windowed walks against the
# brute-force axis lists.
go test -short -run TestMatrix ./internal/difftest/
go test -short -count=1 -run 'TestDifferentialRelativeContexts|TestConformance|TestPositionalWindowsAgainstInterp|TestWindowedWalksAgainstBruteForce' . ./internal/dom/

# Native fuzzing past the committed seeds, 10 s per target: the XML parser
# and the XPath parser must round-trip what they accept through their
# renderers, and the result decoder must agree with encoding/json on every
# input. A failing input lands in the package's testdata/fuzz and fails the
# gate; committed there, it runs as a seed in every later go test.
go test -run '^$' -fuzz '^FuzzParseXML$' -fuzztime 10s ./internal/dom/
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/xpath/
go test -run '^$' -fuzz '^FuzzQueryResultJSON$' -fuzztime 10s ./internal/server/

# Shared-plan gate: goroutines sharing Prepared plans must stay race-free on
# the batched protocol, every run must return each free-list buffer,
# stepper and column it took, however it ends, and cold lookups of the path
# index, which each document holds itself, must build it exactly once per
# document, and an in-memory document's index must be collected with it. The
# visited-set steps ride along: every axis's walk against the dedup of plain
# walks, and the Fig. 5 counters equal under a WrapIter hook and under
# analyze.
# The process-wide run-scratch pool rides along too: each run takes and
# returns exactly one scratch, a pooled scratch pins no dropped document, a
# kept result survives a thousand concurrent runs recycling the pool, and a
# warm Fig. 5 q1 run allocates little beyond its result. So does the path
# index's match memo: shared plans racing to decode one cold index and fill
# its memo, one chain's or one document's match never served to another,
# the memo's cap, clones sharing the decoded index pages, and a warm indexed
# run that allocates no summary walk. So does the document-owned id() map:
# shared id() plans on one MemDoc and on clones of one store image build
# each map once and answer as the interpreter does. So does DupElim, which
# filters through the visited steps' per-document sets: its dedup against
# the fused step, its byte charge and allocation-free re-open, and a union
# across two documents with coinciding NodeIDs. Three rounds, for the
# interleavings.
go test -race -run 'TestConcurrentSharedPreparedBatched|TestPoolBalanceBatched|TestConcurrentQuerySharing|TestConcurrentDistinctDocuments|TestVisitedWalkAgainstDedup|TestFig5VisitedSteps|TestScratchPinsNoDocument|TestScratchAliasesNoResult|TestRunGrowthGarbage|TestPathIndexMemo|TestPathIndexWarmRunAllocs|TestMatchMemo|TestCloneSharesPersistedIndex|TestIDMapSharedPlanConcurrent|TestVisitedStepMatchesDupElim|TestVisitedStepByteBudget|TestVisitedStepReopenAllocs|TestTwoDocumentVisitedStep|TestIndexDiesWithDocument' -count=3 . ./internal/dom/ ./internal/codegen/ ./internal/pathindex/ ./internal/store/ ./internal/physical/

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
# The one singleflight both tiers share rides along: its protocol edge
# cases (three rounds, for the interleavings), a coordinator leader whose
# client hangs up stopping its fan-out, and joiners outliving a leader's
# shorter deadline on both tiers. Both tiers now run one front, so the wire,
# endpoint, admission, overload, drain and quarantine tests are the ones
# that would see it diverge.
go test -race -run 'TestCoordinatorConformanceParity|TestCoordinatorConcurrentOrdering|TestReloadGenerationRetirementRace|TestCoordLeaderClientLeaves|OutlivesShortLeader|TestGroup|TestWireIdentity|TestFrontEndpointsMatch|TestCoordinatorRejectsBadRequests|TestCoordinatorAdmissionAndDrain|TestOverloadKeepsShardReady|TestQuarantine|TestDrainRetryContract' -timeout 5m -count=1 ./internal/cluster/ ./internal/server/ ./internal/flight/
go test -race -count=3 ./internal/flight/

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
