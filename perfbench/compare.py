#!/usr/bin/env python3
"""Run two builds of mmxdsp alternately and summarise each metric.

    python3 perfbench/compare.py --a CHECKOUT_A [--b CHECKOUT_B] \\
        [--workloads paper_cold,design_sweep,vprofd_mix] [--runs 10] \\
        [--seconds 8]

Each checkout is a source tree holding perfbench/ (a git clone or an
unpacked archive of one commit). For every workload the script makes
--runs pairs of untraced runs with seeds 1..--runs, alternating which
checkout goes first, then prints per metric the median, the first and third
quartiles (statistics.quantiles, n=4) and the quartile spread as a share
of the median for each side, and the shift of B's median against A's.
Give the same checkout as A and B to measure the drift of one commit
against itself, which is how the bounds in BENCHMARK.json were set.
Without --b only A runs, which is enough to see one side's spread.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                         timeout=1200)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout} {workload} seed {seed} failed "
                           f"(rc {out.returncode}): {out.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("nan")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True)
    ap.add_argument("--b")
    ap.add_argument("--workloads",
                    default="paper_cold,design_sweep,vprofd_mix")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=8)
    args = ap.parse_args()

    seeds = list(range(1, args.runs + 1))
    sides = {"A": os.path.abspath(args.a)}
    if args.b:
        sides["B"] = os.path.abspath(args.b)

    for workload in args.workloads.split(","):
        values = {side: {} for side in sides}
        failed = {side: [] for side in sides}
        for i in range(args.runs):
            order = sorted(sides, reverse=i % 2 == 1)
            for side in order:
                r = run_once(sides[side], workload, seeds[i], args.seconds)
                if not r["correct"]:
                    print(f"{workload} {side} seed {seeds[i]}: incorrect",
                          file=sys.stderr)
                failed[side].append(r["failed"] / r["attempted"])
                for name, m in r["metrics"].items():
                    values[side].setdefault(name, []).append(m["value"])
                print(f"{workload} run {i} {side} seed {seeds[i]}: "
                      + json.dumps({k: v["value"]
                                    for k, v in r["metrics"].items()}),
                      file=sys.stderr, flush=True)
        print(f"\n== {workload} ({args.runs} runs per side)")
        cols = " ".join(f"{side + ' ' + c:>10}" for side in sides
                        for c in ("median", "q1", "q3", "spread"))
        print(f"{'metric':26} {cols} {'B/A-1':>8}")
        for name in values["A"]:
            s = {side: summary(values[side][name]) for side in sides}
            b = s.get("B", s["A"])
            shift = b["median"] / s["A"]["median"] - 1 if s["A"]["median"] else 0.0
            cells = " ".join(
                f"{s[side]['median']:10.5g} {s[side]['q1']:10.5g} "
                f"{s[side]['q3']:10.5g} {s[side]['spread']:10.4f}"
                for side in sides)
            print(f"{name:26} {cells} {shift:8.4f}")
        print("failed share " + ", ".join(
            f"{side} {sorted(set(failed[side]))}" for side in sides))


if __name__ == "__main__":
    main()
