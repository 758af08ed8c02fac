#!/usr/bin/env python3
"""Builds the benchmark from source (Release) and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root; build output goes to stderr, so the last
stdout line is the benchmark's result JSON. Exits non-zero, printing no
result, when the engine sources are missing, the build fails, or any
check of the run fails.
"""

import os
import subprocess
import sys

WORKLOADS = ("warm_replay", "evolving_stream", "paper_batch", "chaos_overload")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    flags = {"--workload": None, "--seed": None, "--seconds": None, "--trace": None}
    if len(argv) % 2 != 0:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    for flag, value in zip(argv[0::2], argv[1::2]):
        if flag not in flags:
            fail("unknown flag " + flag)
        flags[flag] = value
    if None in flags.values():
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    if flags["--workload"] not in WORKLOADS:
        fail("unknown workload " + flags["--workload"])
    if not flags["--seed"].isdigit() or flags["--trace"] not in ("0", "1"):
        fail("--seed must be a whole number and --trace 0 or 1")
    try:
        if float(flags["--seconds"]) <= 0:
            raise ValueError
    except ValueError:
        fail("--seconds must be a positive number")
    return flags


def build(root):
    """Configures (once) and builds the Release benchmark; returns its path."""
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench-release")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "miso_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "miso_perfbench")


def main():
    flags = parse_args(sys.argv[1:])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to perfbench/")
    binary = build(root)
    args = [binary]
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        args += [flag, flags[flag]]
    sys.stdout.flush()
    sys.exit(subprocess.run(args).returncode)


if __name__ == "__main__":
    main()
