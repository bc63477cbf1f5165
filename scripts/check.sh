#!/usr/bin/env bash
# check.sh — the repo's CI gate, runnable locally.
#
# Order is cheapest-first so the most common failures surface fastest:
# formatting, then vet, then dhl-lint (the DHL-specific invariants), then
# the build, then the race-clean short test suite, then a full (un-short)
# race pass over internal/ring and internal/mbuf. That pass guards the
# single-owner rule: a ring or a pool belongs to the goroutine that drives
# the simulator and carries no synchronisation, so a touch from a second
# goroutine is a data race. TestSecondGoroutineIsADataRace provokes one on
# a ring and fails unless the race detector reports it; no analyzer checks
# the rule statically.
set -euo pipefail
cd "$(dirname "$0")/.."

# targeted is `go test "$@"` for the steps below that pick tests by name. A
# package in which the pattern matches nothing prints "[no tests to run]"
# and passes, and deleting or renaming a test is how a gate comes to guard
# nothing; here that fails the step.
targeted() {
    local out status=0
    out=$(go test "$@" 2>&1) || status=$?
    printf '%s\n' "$out"
    if [[ "$status" -eq 0 ]] && grep -qF '[no tests to run]' <<<"$out"; then
        echo "check.sh: go test $*: the pattern matches no test in a package above" >&2
        status=1
    fi
    return "$status"
}

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needs to be run on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> docscheck (README/DESIGN/EXPERIMENTS cross-references)"
./scripts/docscheck.sh

echo "==> go vet"
go vet ./...

echo "==> dhl-lint (full suite, JSON artifact in lint-report.json)"
go run ./cmd/dhl-lint -format json ./... > lint-report.json || {
    status=$?
    cat lint-report.json >&2
    exit "$status"
}

echo "==> go build"
go build ./...

echo "==> go test -race -short"
go test -race -short -count=1 ./...

echo "==> go test -race (full) internal/ring internal/mbuf (single-owner rule)"
go test -race -count=1 ./internal/ring ./internal/mbuf
targeted -race -run '^TestSecondGoroutineIsADataRace$' -count=1 ./internal/ring

echo "==> bench smoke (1 iteration, -benchmem)"
go test -run '^$' -bench 'Pipeline|Distributor' -benchmem -benchtime=1x -count=1 ./internal/core

echo "==> chaos smoke (seeded fault-injection soak, -short; the watchdog and the health FSM run in every runtime: overload is no fault, a hang on a runtime without a plan is caught)"
targeted -run Chaos -short -count=1 ./internal/core ./internal/harness
targeted -run '^TestOverloadIsNotAFault$' -count=1 ./internal/harness
targeted -run '^TestHangRecoveredWithoutRuntimePlan$' -count=1 ./internal/core

echo "==> wire decoder (the Distributor's Cursor against Walk on any bytes, corrupted batches seeded, 5 s fuzz)"
targeted -run '^FuzzCursorMatchesWalk$' -count=1 ./internal/dhlproto
go test -run '^$' -fuzz FuzzCursorMatchesWalk -fuzztime 5s ./internal/dhlproto

echo "==> flow-scale smoke (100k-flow Zipf churn soak + failover flow-state audit, -short, -race)"
targeted -race -short -run 'FlowScale|FlowState' -count=1 ./internal/harness

echo "==> board-failover smoke (whole-board loss: replica promotion + live migration, -race)"
targeted -race -short -run 'BoardFailover' -count=1 ./internal/harness

echo "==> migration zero-leak gate (live migration under traffic: ledger balanced, 0 mbufs leaked)"
targeted -race -run 'MigrationZeroLeak|MigrateLive|ReplicaPromotion|BringUpReplays|EvictAfterReloadDied|DrainBoardMovesPrimaries|EvictUnloadsReplicas|SearchByNameFindsLiveRow' -count=1 ./internal/core

echo "==> runtime construction gate (one NewRuntime call builds the fleet node-major; a node whose board is out resolves remotely)"
targeted -race -run '^TestNewRuntimeBuildsNodeMajorFleet$' -count=1 ./internal/core
targeted -race -run '^TestTwoNodeFallbackToRemoteBoard$' -count=1 ./internal/core

echo "==> autotuner smoke (control law, backpressure edges, zero-alloc with tuner armed)"
targeted -short -run 'Tuner|AutoTune|Pressure|CopySince|PerAccTuning|AccBatch' -count=1 \
    ./internal/tuner ./internal/core ./internal/telemetry .

echo "==> event-engine equivalence (lazy idle polls vs a naive poll loop, deadlines declared through the Sim, more loops than the sets hold inline and none on the heap, one chain per loop however often started, a new loop allocates only itself, one loop per core and none whose idle poll takes no time, up to two watched inputs per loop, any number of lazy registrations, chained items read lazily, steps counted by kind (stale timer fires too, the multi-NF run's too), event budgets (idle body runs per packet of testbed cores that watch their queues), 10 s fuzz)"
targeted -run 'PollLoopEquivalence|SetOverflow|StartTwiceRunsOneChain|AllocatesOnlyTheLoop|RefusesNoPeriod|SecondLoopOnCoreRefused|WatchesTwoInputs|AddLazyTakesAnyNumber|QuietStep|EventBudget|FlushTimeoutPoke|PoolHotSlab|FreeBulk|SetupBytesOpen' -count=1 \
    ./internal/eventsim ./internal/harness ./internal/core ./internal/mbuf .
# One ^…$ pattern each, so that deleting or renaming one fails the step.
targeted -run '^TestSimWakeByOnlyInsideABody$' -count=1 ./internal/eventsim
targeted -run '^TestStatsCountsStepsByKind$' -count=1 ./internal/eventsim
targeted -run '^TestPollLoopBusySetOverflow$' -count=1 ./internal/eventsim
targeted -run '^TestPollLoopParkedSetOverflow$' -count=1 ./internal/eventsim
targeted -run '^TestPollLoopStartTwiceRunsOneChain$' -count=1 ./internal/eventsim
targeted -run '^TestNewPollLoopAllocatesOnlyTheLoop$' -count=1 ./internal/eventsim
targeted -run '^TestNewPollLoopRefusesNoPeriod$' -count=1 ./internal/eventsim
targeted -run '^TestSecondLoopOnCoreRefused$' -count=1 ./internal/eventsim
targeted -run '^TestPollLoopWatchesTwoInputs$' -count=1 ./internal/eventsim
targeted -run '^TestAddLazyTakesAnyNumber$' -count=1 ./internal/eventsim
targeted -run '^TestEventBudgetFlowScale$' -count=1 ./internal/harness
targeted -run '^TestEventBudgetIdleBodyRuns$' -count=1 ./internal/harness
targeted -run '^TestRunMultiNFReportsSimSteps$' -count=1 ./internal/harness
go test -run '^$' -fuzz FuzzPollLoopEquivalence -fuzztime 10s ./internal/eventsim

echo "==> traffic generator (one generator per port and none without a port or a pool, lazy arrival against an eager reference, a waiting reader, whether it watches its port or not, wakes when an event per frame would wake it and costs no event, churn applied where flows are drawn against an event per step and costs no event, one burst chain per generator, frame written when taken equals the full build, drops go back unbuilt, four 5 s fuzzes)"
targeted -run 'SecondGeneratorOnPortRefused|RefusesMissingPortOrPool|DeliversInScheduleOrder|ArrivalMatchesEager|ReaderWakesAsEager|RxWaitIsNotAnEvent|ChurnMatchesEager|StartTwiceKeepsOnePace|FrameMatchesFullBuild|DropsUnbuiltOnFullQueue' -count=1 ./internal/netdev
targeted -run '^TestSecondGeneratorOnPortRefused$' -count=1 ./internal/netdev
targeted -run '^TestNewGeneratorRefusesMissingPortOrPool$' -count=1 ./internal/netdev
targeted -run '^TestRxWaitIsNotAnEvent$' -count=1 ./internal/netdev
targeted -run '^FuzzReaderWakesAsEager$' -count=1 ./internal/netdev
targeted -run '^TestChurnMatchesEager$' -count=1 ./internal/netdev
targeted -run '^FuzzChurnMatchesEager$' -count=1 ./internal/netdev
targeted -run '^TestStartTwiceKeepsOnePace$' -count=1 ./internal/netdev
targeted -run '^TestChurnIsNotAnEvent$' -count=1 ./internal/harness
go test -run '^$' -fuzz FuzzArrivalMatchesEager -fuzztime 5s ./internal/netdev
go test -run '^$' -fuzz FuzzReaderWakesAsEager -fuzztime 5s ./internal/netdev
go test -run '^$' -fuzz FuzzChurnMatchesEager -fuzztime 5s ./internal/netdev
go test -run '^$' -fuzz FuzzGeneratorFrameMatchesFullBuild -fuzztime 5s ./internal/netdev

echo "==> equivalence coverage floor (every function of the quiet-step path, the busy set, declared inputs read where a loop's cleanness is, deadlines declared through the Sim, the seqs drawn for chained items and the heap push at 100 %)"
# The sweep checks the quiet path (Sim.hush) only where its scenarios leave
# loops deferred between two reads; with a probe after every slice it
# passed while landAll never found a loop to land.
cover_out=$(mktemp)
go test -short -count=1 -run '^TestPollLoopEquivalence$' -coverprofile "$cover_out" ./internal/eventsim
cover_func=$(go tool cover -func "$cover_out")
rm -f "$cover_out"
floor_failed=""
for fn in sim.go:quiet sim.go:loopsQuiet sim.go:hush sim.go:stillHushed sim.go:redraw \
    sim.go:land sim.go:landAll core.go:land sim.go:settle core.go:unproduced core.go:nextReal \
    sim.go:firstBusy core.go:beforeFinish core.go:beforeNext sim.go:WakeBy sim.go:DrawSeq sim.go:push; do
    pct=$(awk -v file="/${fn%%:*}:" -v name="${fn#*:}" 'index($1, file) && $2 == name { print $3 }' <<<"$cover_func")
    if [[ "$pct" != "100.0%" ]]; then
        echo "check.sh: TestPollLoopEquivalence -short covers ${pct:-nothing} of $fn, want 100.0%" >&2
        floor_failed=1
    fi
done
[[ -z "$floor_failed" ]] || exit 1

echo "==> ipsec crypto kernel (reference equivalence, 0-alloc gates, 10 s fuzz)"
targeted -run 'MatchesReference|ZeroAlloc|AllocBudget' -count=1 ./internal/swcrypto ./internal/hwfunc ./internal/harness
go test -run '^$' -fuzz FuzzSealMatchesReference -fuzztime 10s ./internal/swcrypto
# Both HMAC kernels again on the stdlib's generic AES and GCM code, which
# the long-payload CTR path runs on where the CPU has no AES-NI and
# PCLMULQDQ; and the non-amd64 stub kept compiling.
targeted -tags purego -run 'MatchesReference|ZeroAlloc' -count=1 ./internal/swcrypto
GOARCH=arm64 go vet ./internal/swcrypto

echo "==> lpm (reference equivalence, set-up byte budgets, 10 s fuzz)"
targeted -run 'QuickVsNaive|SetupBytes|SetupObjects|TableBytes' -count=1 ./internal/lpm ./internal/nf ./internal/harness
# Uncapped, the fuzzer stops generating after ~3 s and spends the rest
# minimising each 8-bytes-a-step program that reached new coverage.
go test -run '^$' -fuzz FuzzLPMVsNaive -fuzztime 10s -fuzzminimizetime 10x ./internal/lpm

echo "==> set-up byte gates, 50 times over (each reads the least of a few runs against the process-wide TotalAlloc)"
targeted -race -short -count=50 -run 'SetupBytes|TableBytes' ./internal/nf .

echo "==> flowtab (model equivalence, eviction mid-drain, 2^32-granule gaps, slot bytes, 0-alloc gates: hit path, churn, NAT translate, 10 s fuzz)"
targeted -run 'VsModel|ZeroAlloc|InsertLookupEvict|EvictDuringMigration|EvictedKeyStaysGoneWhileIndexDrains|TickAfterLongIdle|FlowTableSlotBytes' \
    -count=1 ./internal/flowtab ./internal/nf
go test -run '^$' -fuzz FuzzFlowtabVsModel -fuzztime 10s -fuzzminimizetime 10x ./internal/flowtab

echo "==> pattern-matching kernel (reference equivalence, 0-alloc gates, 10 s fuzz)"
targeted -run 'VsNaive|MatchesPerRecord|PatternMatchingZeroAlloc|AllocBudgetNIDS|FuzzPatternConfig' -count=1 \
    ./internal/acmatch ./internal/hwfunc ./internal/harness
# -fuzzminimizetime for the reason above: 33 k executions in 10 s without it, 165 k with.
go test -run '^$' -fuzz FuzzLanesVsNaive -fuzztime 10s -fuzzminimizetime 10x ./internal/acmatch

echo "==> telemetry smoke (stage clock, zero-alloc budget, exporter golden)"
targeted -run 'Telemetry|ServeMetricsGolden|WritePrometheus|ExporterHalfRequest' -count=1 \
    ./internal/core ./internal/telemetry .

echo "==> control-plane smoke (serve, manage via dhl-inspect, scrape, shutdown)"
smoke_dir=$(mktemp -d)
serve_pid=""
cleanup() {
    [[ -n "$serve_pid" ]] && kill "$serve_pid" 2>/dev/null || true
    rm -rf "$smoke_dir"
}
trap cleanup EXIT
go build -o "$smoke_dir/dhl-inspect" ./cmd/dhl-inspect
port=$((21000 + RANDOM % 9000))
"$smoke_dir/dhl-inspect" -serve "127.0.0.1:$port" -modules ipsec-crypto -boards 2 \
    > "$smoke_dir/serve.log" 2>&1 &
serve_pid=$!
up=""
for _ in $(seq 1 50); do
    if "$smoke_dir/dhl-inspect" -addr "127.0.0.1:$port" -cmd sys.ping >/dev/null 2>&1; then
        up=1
        break
    fi
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "serve-mode dhl-inspect died:" >&2
        cat "$smoke_dir/serve.log" >&2
        exit 1
    fi
    sleep 0.2
done
if [[ -z "$up" ]]; then
    echo "control plane never answered sys.ping" >&2
    cat "$smoke_dir/serve.log" >&2
    exit 1
fi
"$smoke_dir/dhl-inspect" -addr "127.0.0.1:$port" -cmd acc.load -args loopback,0 >/dev/null
"$smoke_dir/dhl-inspect" -addr "127.0.0.1:$port" -cmd tune.batch -args 2048 >/dev/null
# Autotuner round-trip: enable, confirm the status reports it running,
# disable again so the fixed tune.batch target above stays in force.
"$smoke_dir/dhl-inspect" -addr "127.0.0.1:$port" -cmd tune.auto -args on > "$smoke_dir/tune.txt"
grep -q '"enabled": true' "$smoke_dir/tune.txt" || {
    echo "tune.auto on did not report an enabled controller" >&2
    cat "$smoke_dir/tune.txt" >&2
    exit 1
}
"$smoke_dir/dhl-inspect" -addr "127.0.0.1:$port" -cmd tune.auto -args off > "$smoke_dir/tune.txt"
grep -q '"enabled": false' "$smoke_dir/tune.txt" || {
    echo "tune.auto off left the controller enabled" >&2
    cat "$smoke_dir/tune.txt" >&2
    exit 1
}
# Fleet surface: replicate the live accelerator onto the second board and
# confirm the placement table reports both endpoints.
"$smoke_dir/dhl-inspect" -addr "127.0.0.1:$port" -cmd acc.replicate -args 1 >/dev/null
"$smoke_dir/dhl-inspect" -addr "127.0.0.1:$port" -cmd placement.get > "$smoke_dir/placement.txt"
grep -q '"board": 1' "$smoke_dir/placement.txt" || {
    echo "placement.get is missing the second board after acc.replicate" >&2
    cat "$smoke_dir/placement.txt" >&2
    exit 1
}
# Eviction: acc_id 1 (ipsec-crypto, settled at start) leaves the placement
# table, its health gauge leaves /metrics, and both boards keep their
# endpoint-count gauge. The health series must be there before the evict,
# so the check cannot pass on a scrape that never had it.
has_curl=""
command -v curl >/dev/null && has_curl=1
if [[ -n "$has_curl" ]]; then
    curl -fsS "http://127.0.0.1:$port/metrics" > "$smoke_dir/metrics-pre-evict.txt"
fi
"$smoke_dir/dhl-inspect" -addr "127.0.0.1:$port" -cmd acc.evict -args 1 >/dev/null
"$smoke_dir/dhl-inspect" -addr "127.0.0.1:$port" -json -cmd placement.get > "$smoke_dir/placement.txt"
if grep -q '"acc_id":1,' "$smoke_dir/placement.txt"; then
    echo "placement.get still lists an endpoint of acc_id 1 after acc.evict" >&2
    cat "$smoke_dir/placement.txt" >&2
    exit 1
fi
if [[ -n "$has_curl" ]]; then
    curl -fsS "http://127.0.0.1:$port/metrics" > "$smoke_dir/metrics-post-evict.txt"
    grep -qF 'dhl_acc_health{acc_id="1"' "$smoke_dir/metrics-pre-evict.txt" || {
        echo "/metrics had no dhl_acc_health series for acc_id 1 before the evict" >&2
        exit 1
    }
    if grep -qF 'dhl_acc_health{acc_id="1"' "$smoke_dir/metrics-post-evict.txt"; then
        echo "/metrics still reports dhl_acc_health for acc_id 1 after the evict" >&2
        exit 1
    fi
    for b in 0 1; do
        grep -qF "dhl_board_accs{board=\"$b\"}" "$smoke_dir/metrics-post-evict.txt" || {
            echo "/metrics lost dhl_board_accs for board $b after the evict" >&2
            exit 1
        }
    done
fi
# Capture-then-grep: piping straight into grep -q makes the producer
# take a SIGPIPE/EPIPE when grep exits at the first match, which
# pipefail then reports as a failure (curl exit 23).
"$smoke_dir/dhl-inspect" -addr "127.0.0.1:$port" > "$smoke_dir/overview.txt"
grep -q 'loopback' "$smoke_dir/overview.txt" || {
    echo "overview is missing the live-loaded accelerator" >&2
    cat "$smoke_dir/overview.txt" >&2
    exit 1
}
if [[ -n "$has_curl" ]]; then
    curl -fsS "http://127.0.0.1:$port/metrics" > "$smoke_dir/metrics.txt"
    grep -q dhl_stage_latency_ns "$smoke_dir/metrics.txt" || {
        echo "/metrics scrape lost the stage histograms" >&2
        exit 1
    }
    # A required parameter left out must be refused, not decoded to zero:
    # board.offline without params used to hard-kill board 0. dhl-inspect
    # would stop this client-side, so go to the wire.
    curl -fsS -X POST "http://127.0.0.1:$port/api/v1" \
        -d '{"jsonrpc":"2.0","id":1,"method":"board.offline"}' > "$smoke_dir/offline.txt"
    grep -q -- '"code":-32602' "$smoke_dir/offline.txt" || {
        echo "board.offline without params was not refused with -32602" >&2
        cat "$smoke_dir/offline.txt" >&2
        exit 1
    }
    "$smoke_dir/dhl-inspect" -addr "127.0.0.1:$port" -json -cmd placement.get > "$smoke_dir/placement.txt"
    if [[ $(grep -o '"state":"alive"' "$smoke_dir/placement.txt" | wc -l) -ne 2 ]]; then
        echo "a refused board.offline changed the fleet:" >&2
        cat "$smoke_dir/placement.txt" >&2
        exit 1
    fi
else
    echo "(curl not found; skipping the /metrics scrape)"
fi
"$smoke_dir/dhl-inspect" -addr "127.0.0.1:$port" -cmd sys.shutdown >/dev/null
wait "$serve_pid"
serve_pid=""

echo "OK"
