#!/usr/bin/env bash
# Snapshot the tuner/optimizer micro-benchmarks into one JSON document
# (BENCH_tuner.json at the repo root by default) so the bench trajectory
# is tracked in-tree: run this after perf-relevant changes and commit the
# refreshed snapshot alongside them.
#
# The snapshot merges the google-benchmark JSON of bench_micro_tuner and
# bench_micro_optimizer under {"tuner": ..., "optimizer": ...}. Context
# blocks (host, CPU) are whatever machine ran the script — compare
# *ratios* (e.g. BM_ReorgCadenceColdCache vs BM_ReorgCadenceWarmCache)
# across snapshots, not absolute nanoseconds.
#
# A second snapshot ({"server": ...}, BENCH_server.json by default) covers
# bench_server — session throughput and p99 session latency of the online
# server's admission pipeline, online vs stop-the-world cadence, plus the
# warm paper-workload replay family (plan cache x wave pipelining) and
# the overload-protection family (BM_ServerOverloadShed: deadline
# shedding under the chaos fault profile, breaker off/on). The headline
# number — warm-replay sessions/sec with cache and pipelining on at 4
# threads, the row bench_server names the headline — is lifted into the
# snapshot block as `warm_replay_sessions_per_s`, and the same
# configuration at every thread count as `warm_replay_sessions_per_s_<N>t`,
# so readers never dig through benchmark rows and a thread count that
# loses to 1 thread shows; the breaker-on overload row's
# shed/failed/transition counters are lifted as `overload_*` the same way.
#
# Refuses to run against a non-Release build dir (exit 2): every committed
# snapshot carries library_build_type=release in its google-benchmark
# context blocks, and numbers from Debug / RelWithDebInfo / sanitizer
# builds are not comparable to it. The guard inspects CMAKE_BUILD_TYPE in
# the build dir's CMakeCache.txt.
#
# Usage: tools/bench_snapshot.sh [--build-dir DIR] [--out FILE]
#                                [--server-out FILE]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$ROOT/build"
OUT="$ROOT/BENCH_tuner.json"
SERVER_OUT="$ROOT/BENCH_server.json"

while [ "$#" -gt 0 ]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --out) OUT="$2"; shift 2 ;;
    --server-out) SERVER_OUT="$2"; shift 2 ;;
    -h|--help)
      sed -n '2,34p' "$0" | sed 's/^# \{0,1\}//'
      exit 0 ;;
    *) echo "bench_snapshot.sh: unknown option '$1'" >&2; exit 2 ;;
  esac
done

# Snapshot numbers are only meaningful from an optimized build; anything
# else would silently poison the committed trajectory.
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
              "$BUILD_DIR/CMakeCache.txt" 2>/dev/null || true)"
if [ "$BUILD_TYPE" != "Release" ]; then
  echo "bench_snapshot.sh: refusing non-Release build dir '$BUILD_DIR'" >&2
  echo "  CMAKE_BUILD_TYPE='${BUILD_TYPE:-<unconfigured>}'; the committed snapshot asserts" >&2
  echo "  library_build_type=release, so only Release numbers are comparable." >&2
  echo "  Configure with: cmake -B '$BUILD_DIR' -S '$ROOT' -DCMAKE_BUILD_TYPE=Release" >&2
  exit 2
fi

TUNER_BIN="$BUILD_DIR/bench/bench_micro_tuner"
OPT_BIN="$BUILD_DIR/bench/bench_micro_optimizer"
SERVER_BIN="$BUILD_DIR/bench/bench_server"
for bin in "$TUNER_BIN" "$OPT_BIN" "$SERVER_BIN"; do
  if [ ! -x "$bin" ]; then
    echo "bench_snapshot.sh: $bin not built (cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "== bench_snapshot: running bench_micro_tuner"
"$TUNER_BIN" --benchmark_out="$TMP/tuner.json" \
             --benchmark_out_format=json >/dev/null
echo "== bench_snapshot: running bench_micro_optimizer"
"$OPT_BIN" --benchmark_out="$TMP/optimizer.json" \
           --benchmark_out_format=json >/dev/null

echo "== bench_snapshot: running bench_server"
"$SERVER_BIN" --benchmark_out="$TMP/server.json" \
              --benchmark_out_format=json >/dev/null

# Top-level snapshot metadata, so a reader (or a gate) never has to dig
# into the per-binary google-benchmark context blocks: the build type the
# guard verified and the CPU count the numbers were taken at.
NUM_CPUS="$(nproc 2>/dev/null || echo 1)"

python3 - "$TMP/tuner.json" "$TMP/optimizer.json" "$TMP/server.json" \
          "$OUT" "$SERVER_OUT" "$BUILD_TYPE" "$NUM_CPUS" <<'EOF'
import json
import sys

(tuner_path, optimizer_path, server_path, out_path, server_out_path,
 build_type, num_cpus) = sys.argv[1:8]
with open(tuner_path) as f:
    tuner = json.load(f)
with open(optimizer_path) as f:
    optimizer = json.load(f)
with open(server_path) as f:
    server = json.load(f)
snapshot = {"build_type": build_type, "num_cpus": int(num_cpus)}
with open(out_path, "w") as f:
    json.dump({"snapshot": snapshot, "tuner": tuner, "optimizer": optimizer},
              f, indent=2, sort_keys=True)
    f.write("\n")


def warm_rows(bench_json, prefix):
    """(name, sessions_per_s) of every BM_ServerWarmReplay row whose name
    starts with the given prefix."""
    return [(row["name"], row["sessions_per_s"])
            for row in bench_json.get("benchmarks", [])
            if row.get("name", "").startswith(prefix)
            and "sessions_per_s" in row]


# Headline: the row bench_server names the headline (cache and pipelining
# on, 4 threads), plus that configuration per thread count, against the
# cache-off serial row — the previous generation's serving path.
HEADLINE_ROW = "BM_ServerWarmReplay/1/1/4/real_time"
server_snapshot = dict(snapshot)
for name, rate in warm_rows(server, "BM_ServerWarmReplay/1/1/"):
    threads = name.split("/")[3]
    server_snapshot["warm_replay_sessions_per_s_%st" % threads] = rate
    if name == HEADLINE_ROW:
        server_snapshot["warm_replay_sessions_per_s"] = rate
        server_snapshot["warm_replay_headline_row"] = name
for name, rate in warm_rows(server, "BM_ServerWarmReplay/0/0/1/"):
    server_snapshot["warm_replay_baseline_sessions_per_s"] = rate
# Overload-protection headline: the breaker-on serial row's terminal
# accounting, so a snapshot diff shows shed/failed drift at a glance.
for row in server.get("benchmarks", []):
    if row.get("name", "") == "BM_ServerOverloadShed/1/1/real_time":
        for key in ("sessions_shed", "sessions_failed", "breaker_degraded",
                    "breaker_transitions"):
            if key in row:
                server_snapshot["overload_" + key] = row[key]
with open(server_out_path, "w") as f:
    json.dump({"snapshot": server_snapshot, "server": server}, f, indent=2,
              sort_keys=True)
    f.write("\n")
EOF

echo "== bench_snapshot: wrote $OUT and $SERVER_OUT"
