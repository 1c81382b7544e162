#!/usr/bin/env python3
"""Steadiness check for the stembench benchmark.

    python3 stembench/steady.py [--runs N] [--workload NAME ...] [--seed0 S]
    python3 stembench/steady.py --tiny

Runs every workload (or the named ones) N times (default 10) through
run.py, each with its own seed, and prints for each end-to-end metric
the median, the first and third quartiles, and the spread
(Q3 - Q1) / median next to the bound BENCHMARK.json gives it.  A spread
over a third of its bound is flagged.  Every run must report
correct = true and 0 failed operations.

--tiny runs each workload once with tiny inputs and 2-second phases,
traced and untraced: a quick pass over the harness and every oracle.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace, extra=()):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("%s seed %d: run failed (exit %d)" % (workload, seed, out.returncode))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    if args.tiny:
        for w in workloads:
            for trace in (0, 1):
                r = run(w, args.seed0, 2, trace, ["--tiny"])
                good = r["correct"] and r["failed"] == 0
                ok &= good
                print("%-18s trace=%d correct=%s attempted=%d failed=%d metrics=%d"
                      % (w, trace, r["correct"], r["attempted"], r["failed"], len(r["metrics"])))
        return 0 if ok else 1
    for w in workloads:
        results = [run(w, args.seed0 + i, bench["run_seconds"], 0) for i in range(args.runs)]
        for r in results:
            if not r["correct"] or r["failed"]:
                ok = False
        print("%s: %d runs, attempted %s, failed %s" % (
            w, len(results), [r["attempted"] for r in results], [r["failed"] for r in results]))
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= m["bound"] / 3 else "  <-- over a third of the bound"
            print("  %-20s median %12.4f  q1 %12.4f  q3 %12.4f  spread %6.3f  bound %.2f%s"
                  % (m["name"], med, q1, q3, spread, m["bound"], flag))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
