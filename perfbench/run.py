#!/usr/bin/env python3
"""Run the modemerge merge benchmark from the root of a source checkout.

One run:
    python3 perfbench/run.py --workload many_modes --seed 0 --seconds 30 --trace 0

builds perfbench/mmbench.exe from source (release profile, build
directory .bench_build), runs it as one fresh process, and prints its
result line last: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones (the traced run's spans go to
perfbench/_out/).

Steadiness report:
    python3 perfbench/run.py --workload many_modes --repeat 10 [--seed 0]

runs the workload --repeat times, each in a fresh process with the next
seed, and prints for each end-to-end metric the median, the quartiles,
the inter-quartile spread and (max-min) as shares of the median, and
flags each metric whose inter-quartile spread exceeds its bound in
BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "mmbench.exe")
SPANS_DIR = os.path.join("perfbench", "_out")
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Build the benchmark program (and the library it links) from source."""
    for need in ("dune-project", "lib", os.path.join("perfbench", "mmbench.ml")):
        if not os.path.exists(need):
            die("not a modemerge checkout (missing %s); run from its root" % need)
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "--cache", "disabled",
           "./perfbench/mmbench.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        die("dune not found")
    if done.returncode != 0:
        die("build failed")


def run_once(workload, seed, seconds, trace, mutate=False):
    """One fresh benchmark process; returns (exit code, parsed result or None)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans",
                os.path.join(SPANS_DIR, "spans-%s-%d.json" % (workload, seed))]
    if mutate:
        cmd.append("--mutate")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("%s seed %d did not finish in %d s" % (workload, seed, RUN_TIMEOUT_S))
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def steadiness(workload, seed, seconds, repeat):
    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    runs = []
    attempted = failed = 0
    for i in range(repeat):
        code, result = run_once(workload, seed + i, seconds, 0)
        if result is None:
            die("%s seed %d printed no result" % (workload, seed + i))
        attempted += result["attempted"]
        failed += result["failed"]
        runs.append(result["metrics"])
        print("seed %d: exit %d, %s" % (seed + i, code, json.dumps(
            {k: v["value"] for k, v in result["metrics"].items()})), flush=True)
    print("\n%s, %d runs, seeds %d..%d, failed_pct %.2f"
          % (workload, repeat, seed, seed + repeat - 1,
             100.0 * failed / max(1, attempted)))
    print("%-16s %12s %12s %12s %8s %8s %6s" % (
        "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"))
    summary = {}
    over = []
    for name, bound in bounds.items():
        values = [r[name]["value"] for r in runs if name in r]
        if not values:
            over.append(name)
            continue
        med = statistics.median(values)
        q1, q3 = quartiles(values)
        iqr = (q3 - q1) / med if med else float("inf")
        rng = (max(values) - min(values)) / med if med else float("inf")
        flag = ""
        if iqr > bound:
            flag = "  OVER BOUND"
            over.append(name)
        elif iqr > bound / 3:
            flag = "  over bound/3"
        print("%-16s %12.6g %12.6g %12.6g %8.4f %8.4f %6.2f%s"
              % (name, med, q1, q3, iqr, rng, bound, flag))
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "iqr_share": iqr, "range_share": rng, "bound": bound}
    print(json.dumps({"workload": workload, "runs": repeat,
                      "failed_pct": 100.0 * failed / max(1, attempted),
                      "over_bound": over, "metrics": summary}))
    return 0 if not over and failed == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="steadiness report over this many runs")
    ap.add_argument("--mutate", action="store_true",
                    help="corrupt the gated outputs (gate self-test)")
    args = ap.parse_args()
    build()
    if args.repeat > 0:
        sys.exit(steadiness(args.workload, args.seed, args.seconds, args.repeat))
    code, result = run_once(args.workload, args.seed, args.seconds, args.trace,
                            args.mutate)
    if result is None:
        die("the benchmark printed no result (exit %d)" % code)
    print(json.dumps(result), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
