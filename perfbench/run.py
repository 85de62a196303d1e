#!/usr/bin/env python3
"""Builds and runs spicebench, the layered benchmark of the native runtime.

    python3 perfbench/run.py --workload <scan_short|update_long|serve_mixed>
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first form builds the runtime and spicebench from this checkout's
sources (into $CARGO_TARGET_DIR, default .bench_build, relative to the
checkout root), runs one workload and passes spicebench's output through:
its last line is the JSON result. --selftest is the benchmark's own test:
every workload for one second, untraced and traced, with the same checks,
and the result's metric names compared with BENCHMARK.json. See README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scan_short", "update_long", "serve_mixed")
# A run must end within 180 s, the build of a fresh checkout aside.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures and builds spicebench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "SpiceLoop.h")):
        fail(f"runtime sources not found under {os.path.join(ROOT, 'src')}")
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT, out, "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "spicebench")


def run(binary, workload, seed, seconds, trace, timeout):
    """Runs spicebench once; returns (exit code, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{workload} did not finish within {timeout} s", code=3)
    return proc.returncode, out


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run(binary, workload, 1, 1, trace, RUN_TIMEOUT_S)
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            good = (code == 0 and result is not None and result["correct"]
                    and result["failed"] == 0 and result["attempted"] >= 1
                    and set(result["metrics"]) == expected[trace])
            print(f"selftest {workload} trace={trace}: "
                  f"{'ok' if good else 'FAILED'}")
            if not good:
                sys.stdout.write(out)
            ok &= good
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    start = time.monotonic()
    binary = build()
    sys.stdout.flush()
    if args.selftest:
        sys.exit(selftest(binary))
    timeout = max(30, RUN_TIMEOUT_S - int(time.monotonic() - start))
    code, out = run(binary, args.workload, args.seed, args.seconds,
                    args.trace, timeout)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
