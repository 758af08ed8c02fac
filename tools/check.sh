#!/usr/bin/env bash
# One-command verification gate for the tree:
#
#   1. configure a sanitizer build (ASan+UBSan by default, TSan with
#      --tsan) with warnings-as-errors (MISO_WERROR=ON);
#   2. build everything;
#   3. run the full ctest suite under the sanitizers — this includes the
#      `static_analysis` ctest label (clang-tidy over src/, skipped when
#      the tool is unavailable) and runs every test with MISO_VERIFY=1,
#      so the PlanVerifier / DesignVerifier assert on every enumerated
#      split and every reorganization.
#
# With --tsan the gate must be non-vacuous: MISO_THREADS is forced to at
# least 2 so thread pools really run multiple workers, and the script
# fails if the `concurrency` ctest label has become empty (those tests
# are the ones exercising ThreadPool / ParallelFor / RunSeedSweep under
# TSan).
#
# Any compiler warning, sanitizer report, clang-tidy finding in src/, or
# test failure fails the script.
#
# With --obs the run is restricted to the `obs` ctest label — the
# observability suite (registry semantics, JSONL trace stability, the
# cross-thread-count determinism contract, the docs/TELEMETRY.md
# completeness gate) — with MISO_METRICS=1 and MISO_TRACE=1 forced on,
# so both telemetry gates are exercised in their enabled state.
#
# With --perf the run is restricted to the `perf` ctest label — a smoke
# pass over every bench binary, so the experiment harnesses can't bit-rot
# — and afterwards prints the what-if cache hit-rate counters from one
# short simulation (tools/debug_cache_stats). It then configures a plain
# Release build (build-perf/, no sanitizers) and asserts the thread-
# scaling floor: BM_FullOptimizeThreaded/2 real_time must stay within
# 1.1x of BM_FullOptimizeThreaded/1 — adding a second worker to the
# batched candidate-costing fan-out must never cost more than 10%, even
# on single-core machines (docs/PERFORMANCE.md). Finally it asserts the
# server-throughput floor on the warm paper-workload replay: the plan
# cache must not lose sessions/s against cache-off, and pipelined waves
# must stay within 1.1x of serial on 1 thread (where speculation cannot
# help, only cost). It also fails unless the knapsack oracle tests are
# registered by name (KnapsackPropertyTest.SparseAndDenseSolversAreBitIdentical
# and the KnapsackSparseTest suite), and runs them: with one M-KNAPSACK
# solver in production, they are the only check that its packing matches
# the dense §4.4.1 reference, i.e. that tuning decisions stay put.
#
# With --fault the run is restricted to the `fault` ctest label — the
# fault-injection suite (deterministic chaos sweeps across seeds and
# MISO_THREADS, DW-outage degradation, crash-safe reorganization,
# exhaustion propagation). The script fails if the label is empty.
#
# With --server the run is restricted to the `server` ctest label — the
# online-server battery (the ~2,000-session admission stress sweep with
# byte-identity across MISO_THREADS {1,2,8}, the randomized-interleaving
# epoch-discipline property battery, the fault-interplay regressions, and
# the online-vs-batch replay comparisons). The script fails if the label
# is empty, and also fails if the server-vs-simulator equivalence pins
# are not registered by name: StopTheWorldWaveOfOneMatchesSimulatorExactly
# with faults off and under each faulted profile (transient, outage,
# chaos), and OnlinePaperWorkloadMatchesSimulatorPlanForPlan. Those pins
# are what keep the server and the simulator on one engine.
#
# With --overload the run is restricted to the `overload` ctest label —
# the overload-protection suite (admission-deadline shedding, the
# DW-health circuit breaker state machine and its chaos-profile
# integration, session retry budgets, the stuck-wave watchdog, and the
# V211/V212 invariants). The script fails if the label is empty, and
# also fails if the breaker-off byte-identity tests (the
# ServerOverloadZeroCost suite: overload disabled — and enabled but
# never triggering — must serve byte-identically to the pre-overload
# path) are not registered, so the zero-cost contract can never go
# unwatched.
#
# With --lint the run is restricted to the `static_analysis` ctest label:
# miso-lint (the project's dependency-free determinism & thread-safety
# checker, tools/miso_lint.cc — rules [L001]..[L007], DESIGN.md section 13)
# plus its rule/fixture tests, plus clang-tidy where LLVM tooling exists.
# The script fails if static_analysis.miso_lint is not registered: the
# clang_tidy test may legitimately report SKIPPED on gcc-only machines,
# but the lint gate itself must never be vacuous.
#
# Usage: tools/check.sh [--tsan] [--obs] [--perf] [--fault] [--server]
#                       [--overload] [--lint]
#                       [--jobs N] [--build-dir DIR] [--tidy-only]
#                       [--label L]   (restrict the test run to ctest -L L)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SANITIZE="address,undefined"
BUILD_DIR=""
JOBS="$(nproc 2>/dev/null || echo 2)"
TIDY_ONLY=0
TSAN=0
OBS=0
PERF=0
FAULT=0
SERVER=0
OVERLOAD=0
LINT=0
LABEL=""

while [ "$#" -gt 0 ]; do
  case "$1" in
    --tsan) SANITIZE="thread"; TSAN=1; shift ;;
    --obs) OBS=1; LABEL="obs"; shift ;;
    --perf) PERF=1; LABEL="perf"; shift ;;
    --fault) FAULT=1; LABEL="fault"; shift ;;
    --server) SERVER=1; LABEL="server"; shift ;;
    --overload) OVERLOAD=1; LABEL="overload"; shift ;;
    --lint) LINT=1; LABEL="static_analysis"; shift ;;
    --jobs) JOBS="$2"; shift 2 ;;
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --label) LABEL="$2"; shift 2 ;;
    --tidy-only) TIDY_ONLY=1; shift ;;
    -h|--help)
      sed -n '2,84p' "$0" | sed 's/^# \{0,1\}//'
      exit 0 ;;
    *) echo "check.sh: unknown option '$1'" >&2; exit 2 ;;
  esac
done

if [ -z "$BUILD_DIR" ]; then
  case "$SANITIZE" in
    thread) BUILD_DIR="$ROOT/build-tsan" ;;
    *) BUILD_DIR="$ROOT/build-asan" ;;
  esac
fi

echo "== check.sh: sanitizers=$SANITIZE build=$BUILD_DIR jobs=$JOBS"

cmake -S "$ROOT" -B "$BUILD_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMISO_SANITIZE="$SANITIZE" \
  -DMISO_WERROR=ON

if [ "$TIDY_ONLY" -eq 1 ]; then
  exec "$ROOT/tools/run_clang_tidy.sh" "$BUILD_DIR"
fi

cmake --build "$BUILD_DIR" -j"$JOBS"

# print_stacktrace makes UBSan reports actionable; ASan halts on the first
# error by default (and -fno-sanitize-recover=all aborts on UBSan issues).
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"

CTEST_ARGS=(--test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS")
if [ -n "$LABEL" ]; then
  CTEST_ARGS+=(-L "$LABEL")
fi

if [ "$TSAN" -eq 1 ]; then
  # Real concurrency under TSan: force >= 2 workers into every thread
  # pool (the container may expose a single core, where the default
  # MISO_THREADS resolution would otherwise serialize everything).
  export MISO_THREADS="${MISO_THREADS:-4}"
  if [ "${MISO_THREADS}" -lt 2 ]; then
    echo "check.sh: --tsan requires MISO_THREADS >= 2 (got $MISO_THREADS)" >&2
    exit 1
  fi
  # The gate is only meaningful while the `concurrency` label is
  # populated; an empty label means the TSan run stopped testing
  # concurrency at all.
  CONCURRENCY_COUNT="$(ctest --test-dir "$BUILD_DIR" -L concurrency -N |
                       sed -n 's/^Total Tests: \([0-9]*\)$/\1/p')"
  if [ -z "$CONCURRENCY_COUNT" ] || [ "$CONCURRENCY_COUNT" -eq 0 ]; then
    echo "check.sh: the 'concurrency' ctest label is empty — the TSan gate" \
         "would be vacuous" >&2
    exit 1
  fi
  echo "== check.sh: tsan gate covers $CONCURRENCY_COUNT concurrency tests" \
       "with MISO_THREADS=$MISO_THREADS"
fi

if [ "$OBS" -eq 1 ]; then
  # Both telemetry gates on for the whole obs label: the suite must hold
  # with telemetry enabled, not just in its default-off state (tests that
  # specifically assert default-off detect the env and skip).
  export MISO_METRICS=1
  export MISO_TRACE=1
  OBS_COUNT="$(ctest --test-dir "$BUILD_DIR" -L obs -N |
               sed -n 's/^Total Tests: \([0-9]*\)$/\1/p')"
  if [ -z "$OBS_COUNT" ] || [ "$OBS_COUNT" -eq 0 ]; then
    echo "check.sh: the 'obs' ctest label is empty — the telemetry gate" \
         "would be vacuous" >&2
    exit 1
  fi
  echo "== check.sh: obs gate covers $OBS_COUNT tests with" \
       "MISO_METRICS=1 MISO_TRACE=1"
fi

if [ "$PERF" -eq 1 ]; then
  PERF_COUNT="$(ctest --test-dir "$BUILD_DIR" -L perf -N |
                sed -n 's/^Total Tests: \([0-9]*\)$/\1/p')"
  if [ -z "$PERF_COUNT" ] || [ "$PERF_COUNT" -eq 0 ]; then
    echo "check.sh: the 'perf' ctest label is empty — the bench smoke gate" \
         "would be vacuous" >&2
    exit 1
  fi
  # The knapsack oracle tests live outside the perf label, so pin them
  # by name: each pattern must match at least one registered test.
  KNAPSACK_PINS=('^KnapsackPropertyTest\.SparseAndDenseSolversAreBitIdentical$'
                 '^KnapsackSparseTest\.')
  for PIN in "${KNAPSACK_PINS[@]}"; do
    PIN_COUNT="$(ctest --test-dir "$BUILD_DIR" -R "$PIN" -N |
                 sed -n 's/^Total Tests: \([0-9]*\)$/\1/p')"
    if [ -z "$PIN_COUNT" ] || [ "$PIN_COUNT" -eq 0 ]; then
      echo "check.sh: no test matching '$PIN' is registered — the" \
           "knapsack solver would be unchecked against the dense oracle" >&2
      exit 1
    fi
  done
  echo "== check.sh: perf gate smoke-runs $PERF_COUNT bench binaries" \
       "(knapsack oracle pins registered)"
fi

if [ "$FAULT" -eq 1 ]; then
  FAULT_COUNT="$(ctest --test-dir "$BUILD_DIR" -L fault -N |
                 sed -n 's/^Total Tests: \([0-9]*\)$/\1/p')"
  if [ -z "$FAULT_COUNT" ] || [ "$FAULT_COUNT" -eq 0 ]; then
    echo "check.sh: the 'fault' ctest label is empty — the chaos gate" \
         "would be vacuous" >&2
    exit 1
  fi
  echo "== check.sh: fault gate covers $FAULT_COUNT chaos tests"
fi

if [ "$SERVER" -eq 1 ]; then
  SERVER_COUNT="$(ctest --test-dir "$BUILD_DIR" -L server -N |
                  sed -n 's/^Total Tests: \([0-9]*\)$/\1/p')"
  if [ -z "$SERVER_COUNT" ] || [ "$SERVER_COUNT" -eq 0 ]; then
    echo "check.sh: the 'server' ctest label is empty — the online-server" \
         "gate would be vacuous" >&2
    exit 1
  fi
  # The server-vs-simulator pins must exist by name, not just the label:
  # without them the server and the simulator, which share one engine,
  # could drift apart unwatched.
  for PIN in '^ServerStressTest\.StopTheWorldWaveOfOneMatchesSimulatorExactly$' \
             StopTheWorldWaveOfOneMatchesSimulatorExactly/transient_ \
             StopTheWorldWaveOfOneMatchesSimulatorExactly/outage_ \
             StopTheWorldWaveOfOneMatchesSimulatorExactly/chaos_ \
             OnlinePaperWorkloadMatchesSimulatorPlanForPlan; do
    PIN_COUNT="$(ctest --test-dir "$BUILD_DIR" -L server -R "$PIN" -N |
                 sed -n 's/^Total Tests: \([0-9]*\)$/\1/p')"
    if [ -z "$PIN_COUNT" ] || [ "$PIN_COUNT" -eq 0 ]; then
      echo "check.sh: no server test matching '$PIN' is registered — the" \
           "server-vs-simulator equivalence would be unwatched" >&2
      exit 1
    fi
  done
  echo "== check.sh: server gate covers $SERVER_COUNT online-server tests" \
       "(simulator-equivalence pins registered)"
fi

if [ "$OVERLOAD" -eq 1 ]; then
  OVERLOAD_COUNT="$(ctest --test-dir "$BUILD_DIR" -L overload -N |
                    sed -n 's/^Total Tests: \([0-9]*\)$/\1/p')"
  if [ -z "$OVERLOAD_COUNT" ] || [ "$OVERLOAD_COUNT" -eq 0 ]; then
    echo "check.sh: the 'overload' ctest label is empty — the overload gate" \
         "would be vacuous" >&2
    exit 1
  fi
  # The zero-cost contract is the gate's teeth: breaker+deadlines off
  # (and enabled-but-idle) must be byte-identical to the pre-overload
  # serving path. Those tests must exist by name, not just the label.
  ZEROCOST_COUNT="$(ctest --test-dir "$BUILD_DIR" \
                      -R '^ServerOverloadZeroCost\.' -N |
                    sed -n 's/^Total Tests: \([0-9]*\)$/\1/p')"
  if [ -z "$ZEROCOST_COUNT" ] || [ "$ZEROCOST_COUNT" -eq 0 ]; then
    echo "check.sh: no ServerOverloadZeroCost tests registered — the" \
         "breaker-off byte-identity contract would be unwatched" >&2
    exit 1
  fi
  echo "== check.sh: overload gate covers $OVERLOAD_COUNT tests" \
       "($ZEROCOST_COUNT byte-identity)"
fi

if [ "$LINT" -eq 1 ]; then
  # clang_tidy may be SKIPPED where LLVM tooling is absent; the gate is
  # only meaningful while the always-on miso_lint test is registered.
  MISO_LINT_COUNT="$(ctest --test-dir "$BUILD_DIR" \
                       -R '^static_analysis\.miso_lint$' -N |
                     sed -n 's/^Total Tests: \([0-9]*\)$/\1/p')"
  if [ -z "$MISO_LINT_COUNT" ] || [ "$MISO_LINT_COUNT" -eq 0 ]; then
    echo "check.sh: static_analysis.miso_lint is not registered — the lint" \
         "gate would be vacuous (clang_tidy alone can be SKIPPED)" >&2
    exit 1
  fi
  LINT_COUNT="$(ctest --test-dir "$BUILD_DIR" -L static_analysis -N |
                sed -n 's/^Total Tests: \([0-9]*\)$/\1/p')"
  echo "== check.sh: lint gate covers $LINT_COUNT static_analysis tests" \
       "(miso_lint registered and never skipped)"
fi

ctest "${CTEST_ARGS[@]}"

if [ "$PERF" -eq 1 ]; then
  echo "== check.sh: knapsack solver vs the dense oracle"
  ctest --test-dir "$BUILD_DIR" --output-on-failure \
        -R "$(IFS='|'; echo "${KNAPSACK_PINS[*]}")"

  echo "== check.sh: what-if cache hit rate over a short simulation"
  "$BUILD_DIR/tools/debug_cache_stats"

  # Thread-scaling floor, measured where it matters: a plain Release
  # build (sanitizer builds distort the submit/steal overhead the batched
  # ParallelFor is designed to amortize).
  PERF_BUILD_DIR="$ROOT/build-perf"
  echo "== check.sh: perf scaling gate (Release build at $PERF_BUILD_DIR)"
  cmake -S "$ROOT" -B "$PERF_BUILD_DIR" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$PERF_BUILD_DIR" -j"$JOBS" --target bench_micro_optimizer
  SCALING_JSON="$PERF_BUILD_DIR/threaded_scaling.json"
  "$PERF_BUILD_DIR/bench/bench_micro_optimizer" \
      --benchmark_filter='^BM_FullOptimizeThreaded/[12]$' \
      --benchmark_out="$SCALING_JSON" \
      --benchmark_out_format=json >/dev/null
  python3 - "$SCALING_JSON" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
times = {}
for bench in doc["benchmarks"]:
    if bench.get("run_type") == "aggregate":
        continue
    times[bench["name"]] = bench["real_time"]
one = times.get("BM_FullOptimizeThreaded/1")
two = times.get("BM_FullOptimizeThreaded/2")
if one is None or two is None:
    sys.exit("check.sh: BM_FullOptimizeThreaded/1 or /2 missing from "
             + sys.argv[1])
ratio = two / one
print(f"== check.sh: BM_FullOptimizeThreaded 2t/1t real_time ratio = "
      f"{ratio:.3f} ({two:.0f}ns / {one:.0f}ns)")
if ratio > 1.1:
    sys.exit(f"check.sh: 2-thread optimize is {ratio:.2f}x the 1-thread "
             "time (> 1.10x budget) — parallelism is a regression; see "
             "docs/PERFORMANCE.md")
EOF

  # Server-throughput gate, on the same Release build: the warm
  # paper-workload replay (docs/PERFORMANCE.md "Serving path") must show
  # (a) the design-epoch plan cache never losing throughput
  # (cache-on sessions/s >= cache-off, both serial at 1 thread), and
  # (b) wave pipelining costing at most 10% when it cannot help
  # (pipelined-vs-serial at 1 thread, cache on for both).
  echo "== check.sh: server throughput gate (warm replay, Release build)"
  cmake --build "$PERF_BUILD_DIR" -j"$JOBS" --target bench_server
  SERVER_JSON="$PERF_BUILD_DIR/server_warm_replay.json"
  "$PERF_BUILD_DIR/bench/bench_server" \
      --benchmark_filter='^BM_ServerWarmReplay/' \
      --benchmark_out="$SERVER_JSON" \
      --benchmark_out_format=json >/dev/null
  python3 - "$SERVER_JSON" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
rows = {}
for bench in doc["benchmarks"]:
    if bench.get("run_type") == "aggregate":
        continue
    rows[bench["name"]] = bench


def row(cache, pipeline, threads):
    name = "BM_ServerWarmReplay/%d/%d/%d/real_time" % (cache, pipeline,
                                                       threads)
    if name not in rows:
        sys.exit("check.sh: %s missing from %s" % (name, sys.argv[1]))
    return rows[name]


cache_off = row(0, 0, 1)["sessions_per_s"]
cache_on = row(1, 0, 1)["sessions_per_s"]
print(f"== check.sh: warm replay sessions/s: cache-on {cache_on:.1f} vs "
      f"cache-off {cache_off:.1f} ({cache_on / cache_off:.2f}x)")
if cache_on < cache_off:
    sys.exit(f"check.sh: plan cache LOSES throughput on the warm replay "
             f"({cache_on:.1f} < {cache_off:.1f} sessions/s) — see "
             "docs/PERFORMANCE.md 'Serving path'")
serial = row(1, 0, 1)["real_time"]
pipelined = row(1, 1, 1)["real_time"]
ratio = pipelined / serial
print(f"== check.sh: warm replay pipelined/serial real_time at 1 thread = "
      f"{ratio:.3f}")
if ratio > 1.1:
    sys.exit(f"check.sh: pipelined serving is {ratio:.2f}x the serial time "
             "on 1 thread (> 1.10x budget) — speculation overhead is a "
             "regression; see docs/PERFORMANCE.md 'Serving path'")
EOF
fi

echo "== check.sh: all gates passed"
