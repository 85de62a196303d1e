#!/usr/bin/env python3
"""Steadiness check of the benchmark: repeated runs, spread against bounds.

    python3 perfbench/steady.py [--runs 10] [--seed-base 1000]
        [--workloads scan_short,update_long,serve_mixed] [--seconds S]

Runs the benchmark command from BENCHMARK.json `--runs` times per
workload, each run with its own seed, alternating the order of the
workloads from round to round. For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4), the relative spread
(q3 - q1) / median and that spread as a share of the metric's bound, then
the share of failed requests. `--seconds` defaults to the file's
run_seconds. Exits 1 if a run fails or a spread other than setup_s's
exceeds its bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    results = {w: [] for w in workloads}
    ok = True
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for w in order:
            cmd = spec["command"] + ["--workload", w,
                                     "--seed", str(args.seed_base + r),
                                     "--seconds", str(args.seconds),
                                     "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            try:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                res = None
            if proc.returncode != 0 or res is None or not res["correct"]:
                print(f"run {r} {w}: FAILED (exit {proc.returncode})")
                sys.stdout.write(proc.stdout)
                ok = False
                continue
            results[w].append(res)
            vals = " ".join(f"{k}={v['value']:.4g}"
                            for k, v in res["metrics"].items())
            host = re.search(r"host\.busy_cpus=([0-9.]+)", proc.stdout)
            busy = host.group(1) if host else "?"
            tails = re.search(r"^latency: (.*)$", proc.stdout, re.M)
            print(f"run {r} {w}: {vals} busy_cpus={busy}")
            print(f"  {tails.group(1) if tails else ''}", flush=True)

    for w in workloads:
        runs = results[w]
        if len(runs) < 2:
            continue
        print(f"\n{w} ({len(runs)} runs)")
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'/bound':>7}")
        for m in spec["end_to_end"]:
            vals = [res["metrics"][m["name"]]["value"] for res in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            share = spread / m["bound"]
            if m["name"] != "setup_s" and share > 1:
                ok = False
            print(f"  {m['name']:<20} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>8.3f} {m['bound']:>6.2f} {share:>7.2f}")
        failed = [res["failed"] / res["attempted"] for res in runs]
        print(f"  failed share: {sorted(set(failed))}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
