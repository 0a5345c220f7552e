#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
ArbiterQ libraries and the benchmark into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later calls rebuild incrementally.
Every call first runs the benchmark's self-tests and checks that the
metric names the program emits are the ones BENCHMARK.json lists. The
last line of stdout is the result object; the exit code is non-zero when
the build, a self-test or a correctness gate fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to perfbench/")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def selftest(bdir):
    """Helper self-tests plus the metric-name check against BENCHMARK.json."""
    if subprocess.run([os.path.join(bdir, "perfbench_selftest")],
                      stdout=sys.stderr).returncode:
        log("self-test failed")
        return False
    listed = subprocess.run([os.path.join(bdir, "perfbench"), "--list-metrics"],
                            capture_output=True, text=True, check=True).stdout
    emitted = {"end_to_end": {}, "per_layer": {}}
    for line in listed.splitlines():
        kind, name, unit = line.split()
        emitted[kind][name] = unit
    e2e, layer, _ = declared_metrics()
    ok = emitted["end_to_end"] == e2e and emitted["per_layer"] == layer
    if not ok:
        log("metric names or units differ from BENCHMARK.json")
    return ok


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    bdir = build_dir()
    if not build(bdir) or not selftest(bdir):
        return 2
    if args.selftest:
        log("self-tests passed")
        return 0
    e2e, layer, workloads = declared_metrics()
    if args.workload not in workloads:
        log(f"unknown workload {args.workload!r}; one of {workloads}")
        return 2

    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", os.path.join(bdir, "trace"),
           "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    expected = layer if args.trace else e2e
    if (not isinstance(result, dict) or
            {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            != expected):
        log("result line missing or its metrics differ from BENCHMARK.json")
        return 1
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
