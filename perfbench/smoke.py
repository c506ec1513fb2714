#!/usr/bin/env python3
"""Smoke test of the merge benchmark, on the tiny preset, in seconds.

    python3 perfbench/smoke.py

Run from the root of a source checkout. It checks that an untraced run
prints every end-to-end metric of BENCHMARK.json with its unit, that a
traced run prints every per-layer metric with its unit, and that the
correctness gate trips when the merged output is mutated.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def check_metrics(result, wanted, what):
    got = result["metrics"]
    for m in wanted:
        if m["name"] not in got:
            sys.exit("smoke: %s run lacks metric %s" % (what, m["name"]))
        if got[m["name"]]["unit"] != m["unit"]:
            sys.exit("smoke: %s metric %s has unit %r, want %r"
                     % (what, m["name"], got[m["name"]]["unit"], m["unit"]))


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    run.build()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, result = run.run_once("tiny", 0, 1, trace)
        if code != 0 or result is None or not result["correct"]:
            sys.exit("smoke: clean tiny run with --trace %d failed (exit %d)"
                     % (trace, code))
        check_metrics(result, spec[key], key)
    code, result = run.run_once("tiny", 0, 1, 0, mutate=True)
    if code == 0 or result is None or result["correct"] or result["failed"] == 0:
        sys.exit("smoke: the correctness gate did not trip on mutated output")
    print("smoke: ok")


if __name__ == "__main__":
    main()
